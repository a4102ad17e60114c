#include "core/fl/federation.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "core/codec_spec.hpp"
#include "core/fl/checkpoint.hpp"
#include "core/fl/round_steps.hpp"
#include "data/synthetic.hpp"
#include "net/bandwidth.hpp"
#include "util/bytebuffer.hpp"
#include "util/timer.hpp"

namespace fedsz::core {

namespace {

using Clock = std::chrono::steady_clock;

ByteSpan view(const Bytes& bytes) { return {bytes.data(), bytes.size()}; }

void put_stats(ByteWriter& out, const CompressionStats& stats) {
  out.put_varint(stats.original_bytes);
  out.put_varint(stats.compressed_bytes);
  out.put_varint(stats.lossy_original_bytes);
  out.put_varint(stats.lossy_compressed_bytes);
  out.put_varint(stats.lossless_original_bytes);
  out.put_varint(stats.lossless_compressed_bytes);
  out.put_varint(stats.raw_original_bytes);
  out.put_varint(stats.sparse_original_bytes);
  out.put_varint(stats.sparse_compressed_bytes);
  out.put_varint(stats.sparse_kept_elements);
  out.put_varint(stats.sparse_total_elements);
  out.put_varint(stats.lossy_tensors);
  out.put_varint(stats.lossless_tensors);
  out.put_varint(stats.raw_tensors);
  out.put_varint(stats.sparse_tensors);
  out.put_varint(stats.lossy_chunks);
  out.put_f64(stats.mean_bound_value);
  out.put_f64(stats.compress_seconds);
  out.put_f64(stats.decompress_seconds);
}

CompressionStats get_stats(ByteReader& in) {
  CompressionStats stats;
  stats.original_bytes = static_cast<std::size_t>(in.get_varint());
  stats.compressed_bytes = static_cast<std::size_t>(in.get_varint());
  stats.lossy_original_bytes = static_cast<std::size_t>(in.get_varint());
  stats.lossy_compressed_bytes = static_cast<std::size_t>(in.get_varint());
  stats.lossless_original_bytes = static_cast<std::size_t>(in.get_varint());
  stats.lossless_compressed_bytes = static_cast<std::size_t>(in.get_varint());
  stats.raw_original_bytes = static_cast<std::size_t>(in.get_varint());
  stats.sparse_original_bytes = static_cast<std::size_t>(in.get_varint());
  stats.sparse_compressed_bytes = static_cast<std::size_t>(in.get_varint());
  stats.sparse_kept_elements = static_cast<std::size_t>(in.get_varint());
  stats.sparse_total_elements = static_cast<std::size_t>(in.get_varint());
  stats.lossy_tensors = static_cast<std::size_t>(in.get_varint());
  stats.lossless_tensors = static_cast<std::size_t>(in.get_varint());
  stats.raw_tensors = static_cast<std::size_t>(in.get_varint());
  stats.sparse_tensors = static_cast<std::size_t>(in.get_varint());
  stats.lossy_chunks = static_cast<std::size_t>(in.get_varint());
  stats.mean_bound_value = in.get_f64();
  stats.compress_seconds = in.get_f64();
  stats.decompress_seconds = in.get_f64();
  return stats;
}

// ---- PARTIAL payload ----

/// One client delivery as shipped inside a PARTIAL frame. `pos` is the
/// client's dispatch position WITHIN the edge cohort; the root adds the
/// edge's global offset, which turns (arrival, upload, global pos) into
/// exactly the in-process event queue's (time, tie-break) order. Where and
/// when the delivery was dispatched (node, round, open time) is the root's
/// own knowledge and never crosses the wire.
struct WireClientTrace {
  std::size_t pos = 0;
  double upload_seconds = 0.0;
  ClientDelivery delivery;
};

/// A worker's whole round result: the re-encoded partial plus the ordering
/// keys the root needs to replay the virtual schedule (ship time = the
/// last fold's arrival; the last fold's own key breaks root-side ties the
/// way event-scheduling order would have).
struct WirePartial {
  int round = 0;
  double ship_seconds = 0.0;
  double last_upload_seconds = 0.0;
  std::size_t last_pos = 0;
  EncodedPartial partial;
  std::vector<WireClientTrace> traces;  // in edge fold order
};

Bytes serialize_partial(const WirePartial& wire) {
  ByteWriter out;
  out.put_varint(static_cast<std::uint64_t>(wire.round));
  out.put_f64(wire.ship_seconds);
  out.put_f64(wire.last_upload_seconds);
  out.put_varint(wire.last_pos);
  out.put_blob(view(wire.partial.payload));
  out.put_f64(wire.partial.weight);
  out.put_varint(wire.partial.clients);
  out.put_f64(wire.partial.ef_residual_norm);
  put_stats(out, wire.partial.stats);
  out.put_varint(wire.traces.size());
  for (const WireClientTrace& t : wire.traces) {
    const ClientDelivery& d = t.delivery;
    out.put_varint(t.pos);
    out.put_f64(t.upload_seconds);
    out.put_varint(d.client);
    out.put_f64(d.arrival_seconds);
    out.put_f64(d.transfer_seconds);
    out.put_f64(d.weight);
    out.put_varint(d.payload_bytes);
    put_stats(out, d.stats);
    out.put_f64(d.decode_seconds);
    out.put_f64(d.train_seconds);
    out.put_f64(d.mean_loss);
    out.put_f64(d.ef_residual_norm);
    out.put_f64(d.ef_decode_seconds);
  }
  return out.finish();
}

WirePartial parse_partial(ByteSpan bytes, std::size_t clients) {
  try {
    ByteReader in(bytes);
    WirePartial wire;
    wire.round = static_cast<int>(in.get_varint());
    wire.ship_seconds = in.get_f64();
    wire.last_upload_seconds = in.get_f64();
    wire.last_pos = static_cast<std::size_t>(in.get_varint());
    const ByteSpan payload = in.get_blob_view();
    wire.partial.payload.assign(payload.begin(), payload.end());
    wire.partial.weight = in.get_f64();
    wire.partial.clients = static_cast<std::size_t>(in.get_varint());
    wire.partial.ef_residual_norm = in.get_f64();
    wire.partial.stats = get_stats(in);
    const std::uint64_t count = in.get_varint();
    if (count > in.remaining())
      throw CorruptStream("federation: trace count exceeds the payload");
    wire.traces.resize(static_cast<std::size_t>(count));
    for (WireClientTrace& t : wire.traces) {
      ClientDelivery& d = t.delivery;
      t.pos = static_cast<std::size_t>(in.get_varint());
      t.upload_seconds = in.get_f64();
      d.client = static_cast<std::size_t>(in.get_varint());
      if (d.client >= clients)
        throw CorruptStream("federation: PARTIAL client id out of range");
      d.arrival_seconds = in.get_f64();
      d.transfer_seconds = in.get_f64();
      d.weight = in.get_f64();
      d.payload_bytes = static_cast<std::size_t>(in.get_varint());
      d.stats = get_stats(in);
      d.decode_seconds = in.get_f64();
      d.train_seconds = in.get_f64();
      d.mean_loss = in.get_f64();
      d.ef_residual_norm = in.get_f64();
      d.ef_decode_seconds = in.get_f64();
    }
    if (!in.done())
      throw CorruptStream("federation: trailing bytes after PARTIAL");
    return wire;
  } catch (const CorruptStream&) {
    throw;
  } catch (const std::exception& error) {
    throw CorruptStream(std::string("federation: bad PARTIAL: ") +
                        error.what());
  }
}

// ---- ROUND_OPEN payload ----

struct RoundOpenMsg {
  int round = 0;
  double t_open = 0.0;
  std::vector<std::size_t> cohort;  // global client ids, dispatch order
};

Bytes serialize_round_open(const RoundOpenMsg& msg) {
  ByteWriter out;
  out.put_varint(static_cast<std::uint64_t>(msg.round));
  out.put_f64(msg.t_open);
  out.put_varint(msg.cohort.size());
  for (const std::size_t i : msg.cohort) out.put_varint(i);
  return out.finish();
}

RoundOpenMsg parse_round_open(ByteSpan bytes, std::size_t clients) {
  try {
    ByteReader in(bytes);
    RoundOpenMsg msg;
    msg.round = static_cast<int>(in.get_varint());
    msg.t_open = in.get_f64();
    const std::uint64_t count = in.get_varint();
    if (count > in.remaining())
      throw CorruptStream("federation: cohort count exceeds the payload");
    msg.cohort.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t k = 0; k < count; ++k) {
      const std::uint64_t id = in.get_varint();
      if (id >= clients)
        throw CorruptStream("federation: cohort client id out of range");
      msg.cohort.push_back(static_cast<std::size_t>(id));
    }
    if (!in.done())
      throw CorruptStream("federation: trailing bytes after ROUND_OPEN");
    return msg;
  } catch (const CorruptStream&) {
    throw;
  } catch (const std::exception& error) {
    throw CorruptStream(std::string("federation: bad ROUND_OPEN: ") +
                        error.what());
  }
}

}  // namespace

// ---- manifest ----

Bytes serialize_manifest(const RunManifest& manifest) {
  ByteWriter out;
  out.put_string(manifest.codec_spec);
  out.put_string(manifest.dataset.name);
  out.put_u64(manifest.dataset.seed);
  out.put_varint(manifest.dataset.take);
  out.put_string(manifest.model.arch);
  out.put_varint(static_cast<std::uint64_t>(manifest.model.in_channels));
  out.put_varint(static_cast<std::uint64_t>(manifest.model.image_size));
  out.put_varint(static_cast<std::uint64_t>(manifest.model.num_classes));
  out.put_u8(static_cast<std::uint8_t>(manifest.model.scale));
  out.put_u64(manifest.model.seed);
  out.put_varint(manifest.clients);
  out.put_varint(static_cast<std::uint64_t>(manifest.rounds));
  out.put_u64(manifest.seed);
  out.put_f32(manifest.client.sgd.learning_rate);
  out.put_f32(manifest.client.sgd.momentum);
  out.put_f32(manifest.client.sgd.weight_decay);
  out.put_varint(manifest.client.batch_size);
  out.put_varint(static_cast<std::uint64_t>(manifest.client.local_epochs));
  put_profile(out, manifest.network);
  put_heterogeneous(out, manifest.heterogeneous);
  out.put_f64(manifest.compute_seconds_per_sample);
  out.put_f64(manifest.compute_jitter);
  put_profile(out, manifest.backhaul_network);
  put_heterogeneous(out, manifest.backhaul_heterogeneous);
  out.put_u64(manifest.shard_seed);
  out.put_u32(manifest.edge);
  out.put_u32(manifest.edges);
  out.put_f64(manifest.heartbeat_interval_seconds);
  out.put_u32(manifest.fingerprint);
  return out.finish();
}

RunManifest parse_manifest(ByteSpan bytes) {
  try {
    ByteReader in(bytes);
    RunManifest m;
    m.codec_spec = in.get_string();
    m.dataset.name = in.get_string();
    m.dataset.seed = in.get_u64();
    m.dataset.take = static_cast<std::size_t>(in.get_varint());
    m.model.arch = in.get_string();
    m.model.in_channels = static_cast<int>(in.get_varint());
    m.model.image_size = static_cast<int>(in.get_varint());
    m.model.num_classes = static_cast<int>(in.get_varint());
    m.model.scale = static_cast<nn::ModelScale>(in.get_u8());
    m.model.seed = in.get_u64();
    m.clients = static_cast<std::size_t>(in.get_varint());
    m.rounds = static_cast<int>(in.get_varint());
    m.seed = in.get_u64();
    m.client.sgd.learning_rate = in.get_f32();
    m.client.sgd.momentum = in.get_f32();
    m.client.sgd.weight_decay = in.get_f32();
    m.client.batch_size = static_cast<std::size_t>(in.get_varint());
    m.client.local_epochs = static_cast<int>(in.get_varint());
    m.network = get_profile(in);
    m.heterogeneous = get_heterogeneous(in);
    m.compute_seconds_per_sample = in.get_f64();
    m.compute_jitter = in.get_f64();
    m.backhaul_network = get_profile(in);
    m.backhaul_heterogeneous = get_heterogeneous(in);
    m.shard_seed = in.get_u64();
    m.edge = in.get_u32();
    m.edges = in.get_u32();
    m.heartbeat_interval_seconds = in.get_f64();
    m.fingerprint = in.get_u32();
    if (!in.done())
      throw CorruptStream("manifest: trailing bytes after the manifest");
    return m;
  } catch (const CorruptStream&) {
    throw;
  } catch (const std::exception& error) {
    throw CorruptStream(std::string("manifest: ") + error.what());
  }
}

// ---- edge worker ----

namespace {

/// The worker's rebuilt slice of the run: the same deterministic
/// derivations the in-process coordinator constructor performs (dataset,
/// shards, per-client compute budgets, per-client links, codecs), minus
/// everything server-side. Clients materialize lazily — with crash
/// re-homing a worker can be asked to train ANY client, but usually only
/// its own shard.
struct EdgeRuntime {
  RunManifest manifest;
  FlRunConfig config;
  UpdateCodecPtr codec;
  std::unique_ptr<AggregationTree> tree;
  std::unique_ptr<ClientPopulation> population;  // before network: links
  net::HeterogeneousNetwork network;
  data::DatasetPtr train;
  std::vector<std::vector<std::size_t>> shards;
  std::vector<double> compute_seconds;
  std::vector<std::unique_ptr<FlClient>> clients;  // lazy, index = id
  std::vector<ErrorFeedbackAccumulator> feedback;

  explicit EdgeRuntime(RunManifest m)
      : manifest(std::move(m)),
        config(config_from(manifest)),
        codec(make_codec(parse_codec_spec(manifest.codec_spec))),
        tree(std::make_unique<AggregationTree>(config.topology,
                                               config.clients)),
        population(make_population(config)),
        network(build_population_network(config, population.get())),
        train(build_train(manifest.dataset)) {
    if (manifest.edge >= tree->edge_count())
      throw CorruptStream("manifest: edge index out of range");
    shards = build_client_shards(*train, config, population.get());
    compute_seconds =
        client_compute_budgets(config, shards, population.get());
    clients.resize(config.clients);
    feedback.resize(config.clients);
  }

  static data::DatasetPtr build_train(const DatasetSpec& dataset) {
    data::DatasetPtr train =
        data::make_dataset(dataset.name, dataset.seed).first;
    if (dataset.take > 0) train = data::take(train, dataset.take);
    return train;
  }

  static FlRunConfig config_from(const RunManifest& m) {
    FlRunConfig config;
    config.apply_comm_spec(parse_codec_spec(m.codec_spec));
    config.clients = m.clients;
    config.rounds = m.rounds;
    config.seed = m.seed;
    config.client = m.client;
    config.network = m.network;
    config.heterogeneous = m.heterogeneous;
    config.compute_seconds_per_sample = m.compute_seconds_per_sample;
    config.compute_jitter = m.compute_jitter;
    config.topology.backhaul_network = m.backhaul_network;
    config.topology.backhaul_heterogeneous = m.backhaul_heterogeneous;
    config.topology.shard_seed = m.shard_seed;
    config.validate();
    return config;
  }

  FlClient& client(std::size_t i) {
    if (!clients[i])
      clients[i] = make_client(i, manifest.model, train, shards[i], config);
    return *clients[i];
  }
};

/// Run one cohort: train every client serially (training is deterministic
/// per client, so serial vs pooled changes nothing but wall time), compute
/// each update's virtual upload/arrival analytically, then fold in the
/// exact order the in-process event queue would have processed the
/// arrivals — (arrival time, upload time, dispatch position).
WirePartial process_round(EdgeRuntime& rt, const RoundOpenMsg& open,
                          const StateDict& global) {
  WirePartial wire;
  wire.round = open.round;
  std::vector<Bytes> payloads;  // by dispatch position
  for (std::size_t pos = 0; pos < open.cohort.size(); ++pos) {
    const std::size_t i = open.cohort[pos];
    ProducedUpdate update =
        produce_update(rt.client(i), global, open.round, *rt.codec,
                       rt.config.error_feedback ? &rt.feedback[i] : nullptr);
    WireClientTrace& t = wire.traces.emplace_back();
    t.pos = pos;
    t.upload_seconds = open.t_open + rt.compute_seconds[i];
    ClientDelivery& d = t.delivery = delivery_of(i, update);
    d.transfer_seconds =
        rt.network.link(i).transfer_seconds(update.payload.size());
    d.arrival_seconds = t.upload_seconds + d.transfer_seconds;
    // Barrier schedulers fold in-round, so the staleness scale is 1 and
    // the aggregation weight is the bare sample count.
    d.weight = static_cast<double>(update.samples);
    payloads.push_back(std::move(update.payload));
  }
  std::sort(wire.traces.begin(), wire.traces.end(),
            [](const WireClientTrace& x, const WireClientTrace& y) {
              const double xa = x.delivery.arrival_seconds;
              const double ya = y.delivery.arrival_seconds;
              if (xa != ya) return xa < ya;
              if (x.upload_seconds != y.upload_seconds)
                return x.upload_seconds < y.upload_seconds;
              return x.pos < y.pos;
            });

  EdgeAggregator& edge = rt.tree->node(0, rt.manifest.edge);
  edge.begin_round(global);
  for (WireClientTrace& t : wire.traces) {
    CompressionStats decode_stats;
    const StateDict update =
        rt.codec->decode(view(payloads[t.pos]), &decode_stats);
    t.delivery.decode_seconds = decode_stats.decompress_seconds;
    edge.fold(update, t.delivery.weight);
  }
  const WireClientTrace& last = wire.traces.back();
  wire.ship_seconds = last.delivery.arrival_seconds;
  wire.last_upload_seconds = last.upload_seconds;
  wire.last_pos = last.pos;
  wire.partial = edge.finalize_and_encode(open.round);
  return wire;
}

/// The worker's round loop, with its liveness beacon running for exactly
/// as long as the loop does. Returns on BYE, or on EOF without one (the
/// root vanished: it already has — or never will collect — everything
/// produced here).
void serve_rounds(net::FrameChannel& chan, EdgeRuntime& rt) {
  // The beacon runs on the WALL clock (the root's crash detector is about
  // real processes, not the simulation). FrameChannel::send serializes it
  // with the loop's PARTIAL sends.
  const auto interval = std::chrono::duration<double>(
      std::max(0.01, rt.manifest.heartbeat_interval_seconds));
  std::jthread heartbeat([&](std::stop_token stop) {
    std::mutex mutex;
    std::condition_variable_any wake;
    std::unique_lock<std::mutex> lock(mutex);
    while (!wake.wait_for(lock, stop, interval,
                          [&] { return stop.stop_requested(); })) {
      try {
        chan.send(net::FrameType::kHeartbeat, ByteSpan{});
      } catch (const std::exception&) {
        break;
      }
    }
  });

  std::optional<RoundOpenMsg> pending;
  while (std::optional<net::Frame> frame = chan.recv()) {
    switch (frame->type) {
      case net::FrameType::kRoundOpen:
        pending = parse_round_open(view(frame->payload), rt.config.clients);
        break;
      case net::FrameType::kBroadcast: {
        ByteReader in(view(frame->payload));
        const int round = static_cast<int>(in.get_varint());
        const StateDict global = StateDict::deserialize(in.get_blob_view());
        if (!pending || pending->round != round)
          throw CorruptStream(
              "federation: BROADCAST without a matching ROUND_OPEN");
        const Bytes out =
            serialize_partial(process_round(rt, *pending, global));
        chan.send(net::FrameType::kPartial, view(out));
        pending.reset();
        break;
      }
      case net::FrameType::kBye:
        return;
      default:
        throw CorruptStream("federation: unexpected " +
                            net::frame_type_name(frame->type) + " frame");
    }
  }
}

}  // namespace

void run_edge_worker(net::StreamPtr stream) {
  net::FrameChannel chan(std::move(stream));
  std::optional<net::Frame> hello = chan.recv();
  if (!hello) throw net::TransportError("federation: peer closed before HELLO");
  if (hello->type != net::FrameType::kHello)
    throw CorruptStream("federation: expected HELLO, got " +
                        net::frame_type_name(hello->type));
  EdgeRuntime rt(parse_manifest(view(hello->payload)));

  ByteWriter ack;
  ack.put_u32(rt.manifest.fingerprint);
  ack.put_varint(rt.manifest.edge);
  const Bytes ack_bytes = ack.finish();
  chan.send(net::FrameType::kAck, view(ack_bytes));
  try {
    serve_rounds(chan, rt);
  } catch (...) {
    chan.close();
    throw;
  }
  chan.close();
}

// ---- root ----

struct FederatedRoot::Impl {
  nn::ModelConfig model_config;
  DatasetSpec train_spec;
  data::DatasetPtr test;
  FlRunConfig config;  // shard_seed resolved
  std::string spec_string;
  SchedulerPtr scheduler;
  FederationOptions options;
  FlServer server;
  std::unique_ptr<ClientPopulation> population;  // before network: links
  net::HeterogeneousNetwork network;  // client links (Eqn-1 decisions)
  std::unique_ptr<AggregationTree> tree;
  std::unique_ptr<net::TcpListener> listener;
  std::uint32_t fingerprint = 0;

  Impl(const nn::ModelConfig& model, DatasetSpec train, data::DatasetPtr t,
       FlRunConfig cfg, SchedulerPtr sched, FederationOptions opts)
      : model_config(model),
        train_spec(std::move(train)),
        test(std::move(t)),
        config(std::move(cfg)),
        scheduler(sched ? std::move(sched) : make_sync_scheduler()),
        options(opts),
        server(model),
        population(make_population(config)),
        network(build_population_network(config, population.get())) {}
};

FederatedRoot::FederatedRoot(const nn::ModelConfig& model_config,
                             DatasetSpec train, data::DatasetPtr test,
                             FlRunConfig config, const CodecSpec& spec,
                             SchedulerPtr scheduler, FederationOptions options)
    : impl_(std::make_unique<Impl>(model_config, std::move(train),
                                   std::move(test), std::move(config),
                                   std::move(scheduler), options)) {
  Impl& impl = *impl_;
  impl.config.validate();
  impl.spec_string = format_codec_spec(spec);
  if (impl.config.topology.mode != TopologyMode::kHier ||
      impl.config.topology.resolved_tiers().size() != 1)
    throw InvalidArgument(
        "FederatedRoot: distributed runs need a single-tier hierarchy "
        "(topology=hier:<N>) -- one worker process per tier-1 edge");
  if (impl.scheduler->continuous())
    throw InvalidArgument(
        "FederatedRoot: distributed runs require a barrier scheduler "
        "(sync or sampled_sync)");
  if (!impl.config.downlink_spec.empty())
    throw InvalidArgument(
        "FederatedRoot: downlink compression is not distributed yet -- the "
        "broadcast ships lossless over the wire");
  if (!impl.config.failures.empty())
    throw InvalidArgument(
        "FederatedRoot: injected failure schedules are in-process only; "
        "distributed churn comes from real worker crashes (heartbeats)");
  if (impl.config.population.dropout_rate > 0.0)
    throw InvalidArgument(
        "FederatedRoot: population mid-round dropout is in-process only; "
        "remove drop= from population= when using transport=tcp");
  if (impl.config.topology.edge_mode != EdgeMode::kSync)
    throw InvalidArgument(
        "FederatedRoot: distributed edges are sync-only (a buffered edge "
        "would need late client arrivals crossing the wire)");
  if (!impl.config.checkpoint_path.empty())
    throw InvalidArgument(
        "FederatedRoot: checkpoint/resume is in-process only for now -- "
        "drop checkpoint= from the spec when using transport=tcp");
  impl.config.topology =
      with_shard_seed(impl.config.topology, impl.config.seed);
  impl.tree = std::make_unique<AggregationTree>(impl.config.topology,
                                                impl.config.clients);
  edge_count_ = impl.tree->edge_count();
  impl.fingerprint = run_fingerprint(impl.config, impl.model_config);
  if (!impl.config.transport.empty()) {
    // "tcp:<port>" was validated by FlRunConfig::validate(); port 0 asks
    // the kernel, so bind NOW to make port() meaningful before run().
    const std::uint16_t port = static_cast<std::uint16_t>(
        std::stoul(impl.config.transport.substr(4)));
    impl.listener = std::make_unique<net::TcpListener>(port);
  }
}

FederatedRoot::~FederatedRoot() = default;

std::uint16_t FederatedRoot::port() const {
  if (!impl_->listener)
    throw InvalidArgument("FederatedRoot: no TCP listener (inproc streams)");
  return impl_->listener->port();
}

RunManifest FederatedRoot::manifest(std::uint32_t edge) const {
  if (edge >= edge_count_)
    throw InvalidArgument("FederatedRoot: edge index out of range");
  const Impl& impl = *impl_;
  const FlRunConfig& config = impl.config;
  RunManifest m;
  m.codec_spec = impl.spec_string;
  m.dataset = impl.train_spec;
  m.model = impl.model_config;
  m.clients = config.clients;
  m.rounds = config.rounds;
  m.seed = config.seed;
  m.client = config.client;
  m.network = config.network;
  m.heterogeneous = config.heterogeneous;
  m.compute_seconds_per_sample = config.compute_seconds_per_sample;
  m.compute_jitter = config.compute_jitter;
  m.backhaul_network = config.topology.backhaul_network;
  m.backhaul_heterogeneous = config.topology.backhaul_heterogeneous;
  m.shard_seed = config.topology.shard_seed;
  m.edge = edge;
  m.edges = static_cast<std::uint32_t>(edge_count_);
  m.heartbeat_interval_seconds = impl.options.heartbeat_interval_seconds;
  m.fingerprint = impl.fingerprint;
  return m;
}

FlRunResult FederatedRoot::run() {
  if (!impl_->listener)
    throw InvalidArgument(
        "FederatedRoot: run() needs transport=tcp:<port>; use "
        "run_with_streams() for caller-managed streams");
  std::vector<net::StreamPtr> streams;
  streams.reserve(edge_count_);
  for (std::size_t e = 0; e < edge_count_; ++e)
    streams.push_back(impl_->listener->accept());
  return run_with_streams(std::move(streams));
}

namespace {

/// One worker connection as the root sees it: its channel, the thread
/// draining its frames into the shared inbox, and liveness bookkeeping.
struct Conn {
  std::unique_ptr<net::FrameChannel> chan;
  std::thread reader;
  Clock::time_point last_seen{};
};

struct InboxEvent {
  std::size_t edge = 0;
  std::optional<net::Frame> frame;  // nullopt = disconnect/EOF
  std::string error;
};

}  // namespace

FlRunResult FederatedRoot::run_with_streams(
    std::vector<net::StreamPtr> streams) {
  Impl& impl = *impl_;
  const std::size_t edges = edge_count_;
  if (streams.size() != edges)
    throw InvalidArgument("FederatedRoot: got " +
                          std::to_string(streams.size()) + " streams for " +
                          std::to_string(edges) + " edges");

  Timer wall;
  std::mutex inbox_mutex;
  std::condition_variable inbox_cv;
  std::deque<InboxEvent> inbox;
  std::vector<Conn> conns(edges);

  auto push_event = [&](InboxEvent event) {
    {
      std::lock_guard<std::mutex> lock(inbox_mutex);
      inbox.push_back(std::move(event));
    }
    inbox_cv.notify_all();
  };
  auto wait_event =
      [&](std::chrono::milliseconds timeout) -> std::optional<InboxEvent> {
    std::unique_lock<std::mutex> lock(inbox_mutex);
    if (!inbox_cv.wait_for(lock, timeout, [&] { return !inbox.empty(); }))
      return std::nullopt;
    InboxEvent event = std::move(inbox.front());
    inbox.pop_front();
    return event;
  };

  auto shutdown = [&] {
    for (Conn& conn : conns) {
      if (conn.chan) conn.chan->close();
      if (conn.reader.joinable()) conn.reader.join();
    }
  };

  try {
    const auto start = Clock::now();
    for (std::size_t e = 0; e < edges; ++e) {
      conns[e].chan = std::make_unique<net::FrameChannel>(streams[e]);
      conns[e].last_seen = start;
      const Bytes hello = serialize_manifest(
          manifest(static_cast<std::uint32_t>(e)));
      conns[e].chan->send(net::FrameType::kHello, view(hello));
      conns[e].reader = std::thread([&, e] {
        try {
          while (std::optional<net::Frame> frame = conns[e].chan->recv()) {
            const bool beat = frame->type == net::FrameType::kHeartbeat;
            {
              std::lock_guard<std::mutex> lock(inbox_mutex);
              conns[e].last_seen = Clock::now();
              if (!beat) inbox.push_back({e, std::move(*frame), ""});
            }
            if (!beat) inbox_cv.notify_all();
          }
          push_event({e, std::nullopt, ""});
        } catch (const std::exception& error) {
          push_event({e, std::nullopt, error.what()});
        }
      });
    }

    // Handshake: every worker must echo the fingerprint and its edge
    // before the first round — a worker built from different code (or fed
    // a different manifest) fails here, not 40 rounds in. A worker that
    // dies before its own ACK never confirmed its build, which is fatal.
    // One that dies after it is a crash like any later one: its EOF goes
    // back to the inbox for the round loop's crash path, so the outcome
    // does not depend on how fast the other workers ACK.
    std::vector<char> acked(edges, 0);
    std::vector<InboxEvent> deaths;
    std::size_t acks = 0;
    while (acks < edges) {
      std::optional<InboxEvent> event =
          wait_event(std::chrono::milliseconds(500));
      if (!event) continue;
      if (!event->frame) {
        if (!acked[event->edge])
          throw net::TransportError(
              "federation: worker " + std::to_string(event->edge) +
              " died during handshake" +
              (event->error.empty() ? "" : ": " + event->error));
        deaths.push_back(std::move(*event));
        continue;
      }
      if (event->frame->type != net::FrameType::kAck)
        throw CorruptStream("federation: expected ACK, got " +
                            net::frame_type_name(event->frame->type));
      ByteReader in(view(event->frame->payload));
      const std::uint32_t fp = in.get_u32();
      const std::uint64_t edge = in.get_varint();
      if (fp != impl.fingerprint || edge != event->edge)
        throw net::TransportError(
            "federation: worker " + std::to_string(event->edge) +
            " acked a mismatched fingerprint/edge -- incompatible build or "
            "manifest");
      if (!acked[event->edge]) {
        acked[event->edge] = 1;
        ++acks;
      }
    }
    {
      std::lock_guard<std::mutex> lock(inbox_mutex);
      inbox.insert(inbox.begin(), std::make_move_iterator(deaths.begin()),
                   std::make_move_iterator(deaths.end()));
    }

    // ---- the campaign ----
    FlRunResult result;
    result.scheduler = impl.scheduler->name();
    const ClientPopulation* population = impl.population.get();
    RoundStreams streams(impl.config.seed);
    std::vector<std::vector<std::size_t>> members = impl.tree->base_shards();
    std::vector<std::size_t> peak(1 + edges, 0);
    std::vector<char> dead(edges, 0);
    std::vector<char> rehomed(edges, 0);
    double virtual_now = 0.0;
    int completed = 0;
    const auto timeout = std::chrono::duration<double>(
        std::max(0.1, impl.options.heartbeat_timeout_seconds));

    while (completed < impl.config.rounds) {
      RoundRecord record;
      record.round = completed;
      record.backhaul_tier_bytes.assign(1, 0);
      record.backhaul_tier_raw_bytes.assign(1, 0);

      // Re-home the members of every edge that died since the last open:
      // round-robin over the survivors, like the in-process crash
      // machinery minus the seeded shuffle (a real crash is not a seeded
      // draw; determinism across runs ends where real failures begin).
      {
        std::vector<std::size_t> displaced;
        for (std::size_t e = 0; e < edges; ++e) {
          if (!dead[e] || rehomed[e]) continue;
          rehomed[e] = 1;
          record.crashed_nodes.push_back(impl.tree->flat_index(0, e));
          displaced.insert(displaced.end(), members[e].begin(),
                           members[e].end());
          members[e].clear();
        }
        std::vector<std::size_t> alive;
        for (std::size_t e = 0; e < edges; ++e)
          if (!dead[e]) alive.push_back(e);
        if (alive.empty())
          throw net::TransportError(
              "federation: every edge worker died with rounds remaining");
        for (std::size_t k = 0; k < displaced.size(); ++k)
          members[alive[k % alive.size()]].push_back(displaced[k]);
      }

      impl.server.begin_round();
      const double t_open = virtual_now;
      const std::vector<std::vector<std::size_t>> cohort =
          draw_round_open(members, impl.config.clients, population,
                          *impl.scheduler, streams, t_open, 1, record);
      std::vector<std::size_t> offset(edges, 0);
      for (std::size_t e = 1; e < edges; ++e)
        offset[e] = offset[e - 1] + cohort[e - 1].size();

      ByteWriter broadcast_out;
      broadcast_out.put_varint(static_cast<std::uint64_t>(completed));
      broadcast_out.put_blob(view(impl.server.global_state().serialize()));
      const Bytes broadcast = broadcast_out.finish();
      std::vector<char> expected(edges, 0);
      std::size_t outstanding = 0;
      for (std::size_t e = 0; e < edges; ++e) {
        if (cohort[e].empty()) continue;
        const Bytes open_bytes =
            serialize_round_open({completed, t_open, cohort[e]});
        expected[e] = 1;
        ++outstanding;
        try {
          conns[e].chan->send(net::FrameType::kRoundOpen, view(open_bytes));
          conns[e].chan->send(net::FrameType::kBroadcast, view(broadcast));
        } catch (const std::exception&) {
          dead[e] = 1;  // crash handling below traces the cohort
        }
      }

      auto crash = [&](std::size_t e) {
        dead[e] = 1;
        if (conns[e].chan) conns[e].chan->close();
        if (!expected[e]) return;
        expected[e] = 0;
        --outstanding;
        // The cohort this worker was running vanishes mid-round: trace it
        // like an in-process dropout sweep (weight 0, nothing totaled).
        for (const std::size_t i : cohort[e])
          trace_undelivered(record, i, 1 + impl.tree->flat_index(0, e),
                            DeliveryStatus::kDropped, completed, t_open,
                            t_open, population);
      };
      for (std::size_t e = 0; e < edges; ++e)
        if (expected[e] && dead[e]) crash(e);

      // Received partials with their uplink leg: arrival = ship + transfer.
      struct Arrived {
        std::size_t edge = 0;
        double transfer = 0.0;
        double arrival = 0.0;
        WirePartial wire;
      };
      std::vector<Arrived> arrived;
      auto round_start = Clock::now();
      while (outstanding > 0) {
        std::optional<InboxEvent> event =
            wait_event(std::chrono::milliseconds(200));
        if (!event) {
          const auto now = Clock::now();
          for (std::size_t e = 0; e < edges; ++e) {
            if (!expected[e] || dead[e]) continue;
            Clock::time_point seen;
            {
              std::lock_guard<std::mutex> lock(inbox_mutex);
              seen = conns[e].last_seen;
            }
            if (now - std::max(seen, round_start) >
                std::chrono::duration_cast<Clock::duration>(timeout))
              crash(e);  // heartbeat timeout
          }
          continue;
        }
        const std::size_t e = event->edge;
        if (!event->frame) {
          crash(e);  // disconnected
          continue;
        }
        if (event->frame->type != net::FrameType::kPartial)
          throw CorruptStream("federation: expected PARTIAL, got " +
                              net::frame_type_name(event->frame->type));
        WirePartial partial =
            parse_partial(view(event->frame->payload), impl.config.clients);
        if (partial.round != completed)
          throw CorruptStream("federation: PARTIAL for round " +
                              std::to_string(partial.round) +
                              " while round " + std::to_string(completed) +
                              " is open");
        if (!expected[e])
          throw CorruptStream(
              "federation: unsolicited PARTIAL from edge " +
              std::to_string(e));
        const double transfer = impl.tree->uplink(0, e).transfer_seconds(
            partial.partial.payload.size());
        arrived.push_back(
            {e, transfer, partial.ship_seconds + transfer, std::move(partial)});
        expected[e] = 0;
        --outstanding;
      }

      // ---- merge, replaying the in-process event order ----
      // Partial events sort by (arrival, schedule order); ship events were
      // scheduled in last-fold order, which is itself the global
      // (arrival, upload, dispatch-position) order of the final folds.
      std::sort(arrived.begin(), arrived.end(),
                [&](const Arrived& x, const Arrived& y) {
                  if (x.arrival != y.arrival) return x.arrival < y.arrival;
                  if (x.wire.ship_seconds != y.wire.ship_seconds)
                    return x.wire.ship_seconds < y.wire.ship_seconds;
                  if (x.wire.last_upload_seconds != y.wire.last_upload_seconds)
                    return x.wire.last_upload_seconds <
                           y.wire.last_upload_seconds;
                  return offset[x.edge] + x.wire.last_pos <
                         offset[y.edge] + y.wire.last_pos;
                });

      // Client deliveries across ALL edges, re-sorted into the global
      // arrival order the in-process pump folded them in, so every
      // non-associative double sum in the record accumulates identically.
      struct GlobalTrace {
        std::size_t edge = 0;
        std::size_t global_pos = 0;
        const WireClientTrace* t = nullptr;
      };
      std::vector<GlobalTrace> folds;
      for (const Arrived& a : arrived)
        for (const WireClientTrace& t : a.wire.traces)
          folds.push_back({a.edge, offset[a.edge] + t.pos, &t});
      std::sort(folds.begin(), folds.end(),
                [](const GlobalTrace& x, const GlobalTrace& y) {
                  const double xa = x.t->delivery.arrival_seconds;
                  const double ya = y.t->delivery.arrival_seconds;
                  if (xa != ya) return xa < ya;
                  if (x.t->upload_seconds != y.t->upload_seconds)
                    return x.t->upload_seconds < y.t->upload_seconds;
                  return x.global_pos < y.global_pos;
                });
      for (const GlobalTrace& g : folds) {
        ClientDelivery delivery = g.t->delivery;
        delivery.node = 1 + impl.tree->flat_index(0, g.edge);
        delivery.dispatch_round = completed;
        delivery.dispatch_seconds = t_open;
        account_delivery(record, delivery, population,
                         impl.network.link(delivery.client));
      }

      for (const Arrived& a : arrived) {
        const EncodedPartial& p = a.wire.partial;
        const std::size_t flat = impl.tree->flat_index(0, a.edge);
        EdgeTraceEntry trace =
            partial_trace(p, flat, 0, a.transfer, a.arrival);
        CompressionStats decode_stats;
        StateDict mean =
            impl.tree->decode_partial(0, view(p.payload), &decode_stats);
        impl.server.merge_partial(mean, p.weight);
        record.aggregate_weight += p.weight;
        trace.decode_seconds = decode_stats.decompress_seconds;
        account_partial(record, std::move(trace));
        peak[0] = std::max<std::size_t>(peak[0], 1);
        if (p.clients > 0)
          peak[1 + flat] = std::max<std::size_t>(peak[1 + flat], 1);
        virtual_now = std::max(virtual_now, a.arrival);
      }

      finish_round(record, impl.server, virtual_now, impl.config, *impl.test);
      result.rounds.push_back(std::move(record));
      ++completed;
    }

    const Bytes empty;
    for (std::size_t e = 0; e < edges; ++e) {
      if (dead[e]) continue;
      try {
        conns[e].chan->send(net::FrameType::kBye, view(empty));
      } catch (const std::exception&) {
        // A worker that died between its last partial and BYE changes
        // nothing; the campaign is complete.
      }
    }
    shutdown();

    result.final_accuracy =
        result.rounds.empty() ? 0.0 : result.rounds.back().accuracy;
    result.peak_decoded_updates = peak[0];
    result.peak_decoded_per_node = std::move(peak);
    result.total_virtual_seconds = virtual_now;
    result.total_wall_seconds = wall.seconds();
    return result;
  } catch (...) {
    shutdown();
    throw;
  }
}

}  // namespace fedsz::core
