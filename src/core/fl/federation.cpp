#include "core/fl/federation.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "core/codec_spec.hpp"
#include "core/fl/checkpoint.hpp"
#include "data/synthetic.hpp"
#include "net/bandwidth.hpp"
#include "net/virtual_clock.hpp"
#include "util/bytebuffer.hpp"

namespace fedsz::core {

namespace {

using Clock = std::chrono::steady_clock;

ByteSpan view(const Bytes& bytes) { return {bytes.data(), bytes.size()}; }

// ---- PARTIAL payload ----

template <typename Stats, typename Io>
void visit_stats(Stats& s, Io& io) {
  for (auto* count :
       {&s.original_bytes, &s.compressed_bytes, &s.lossy_original_bytes,
        &s.lossy_compressed_bytes, &s.lossless_original_bytes,
        &s.lossless_compressed_bytes, &s.raw_original_bytes,
        &s.sparse_original_bytes, &s.sparse_compressed_bytes,
        &s.sparse_kept_elements, &s.sparse_total_elements, &s.lossy_tensors,
        &s.lossless_tensors, &s.raw_tensors, &s.sparse_tensors,
        &s.lossy_chunks})
    io.varint(*count);
  for (auto* value :
       {&s.mean_bound_value, &s.compress_seconds, &s.decompress_seconds})
    io.f64(*value);
}

template <typename Update, typename Io>
void visit_update(Update& update, Io& io) {
  auto& d = update.delivery;
  io.varint(d.client);
  io.f64(update.compute_seconds);
  io.varint(d.samples);
  visit_stats(d.stats, io);
  io.f64(d.train_seconds);
  io.f64(d.mean_loss);
  io.f64(d.ef_residual_norm);
  io.f64(d.ef_decode_seconds);
  io.varint(d.payload_bytes);
  io.f64(d.decode_seconds);
}

template <typename Msg, typename Io>
void visit_partial(Msg& msg, Io& io) {
  auto& partial = msg.report.partial;
  io.varint(msg.round);
  io.bytes(partial.payload);
  io.f64(partial.weight);
  io.varint(partial.clients);
  io.f64(partial.ef_residual_norm);
  visit_stats(partial.stats, io);
  io.list(msg.report.updates, [&](auto& update) { visit_update(update, io); });
}

// ---- ROUND_OPEN payload ----

struct RoundOpenMsg {
  int round = 0;
  double t_open = 0.0;
  std::vector<std::size_t> cohort;  // global client ids, dispatch order
};

template <typename Msg, typename Io>
void visit_round_open(Msg& msg, Io& io) {
  io.varint(msg.round);
  io.f64(msg.t_open);
  io.list(msg.cohort, [&](auto& client) { io.varint(client); });
}

Bytes serialize_round_open(const RoundOpenMsg& msg) {
  ByteWriter out;
  FieldWriter put{out};
  visit_round_open(msg, put);
  return out.finish();
}

RoundOpenMsg parse_round_open(ByteSpan bytes, std::size_t clients) {
  return parse_or_corrupt("federation: bad ROUND_OPEN: ", [&] {
    ByteReader in(bytes);
    RoundOpenMsg msg;
    FieldReader get{in, "federation: ROUND_OPEN"};
    visit_round_open(msg, get);
    if (!in.done())
      throw CorruptStream("federation: trailing bytes after ROUND_OPEN");
    for (const std::size_t client : msg.cohort)
      if (client >= clients)
        throw CorruptStream("federation: cohort client id out of range");
    return msg;
  });
}

}  // namespace

// ---- manifest ----

Bytes serialize_manifest(const RunManifest& manifest) {
  ByteWriter out;
  out.put_string(manifest.codec_spec);
  out.put_string(manifest.dataset.name);
  out.put_u64(manifest.dataset.seed);
  out.put_varint(manifest.dataset.take);
  put_model_config(out, manifest.model);
  put_run_config(out, manifest.config);
  out.put_u32(manifest.edge);
  out.put_f64(manifest.heartbeat_interval_seconds);
  return out.finish();
}

RunManifest parse_manifest(ByteSpan bytes) {
  return parse_or_corrupt("manifest: ", [&] {
    ByteReader in(bytes);
    RunManifest m;
    m.codec_spec = in.get_string();
    m.dataset.name = in.get_string();
    m.dataset.seed = in.get_u64();
    m.dataset.take = static_cast<std::size_t>(in.get_varint());
    m.model = get_model_config(in);
    m.config = get_run_config(in);
    m.edge = in.get_u32();
    m.heartbeat_interval_seconds = in.get_f64();
    if (!in.done())
      throw CorruptStream("manifest: trailing bytes after the manifest");
    return m;
  });
}

// ---- PARTIAL ----

Bytes serialize_partial(const PartialMsg& msg) {
  ByteWriter out;
  FieldWriter put{out};
  visit_partial(msg, put);
  return out.finish();
}

PartialMsg parse_partial(ByteSpan bytes, std::size_t clients) {
  return parse_or_corrupt("federation: bad PARTIAL: ", [&] {
    ByteReader in(bytes);
    PartialMsg msg;
    FieldReader get{in, "federation: PARTIAL"};
    visit_partial(msg, get);
    if (!in.done())
      throw CorruptStream("federation: trailing bytes after PARTIAL");
    for (const ReportedUpdate& update : msg.report.updates)
      if (update.delivery.client >= clients)
        throw CorruptStream("federation: PARTIAL client id out of range");
    return msg;
  });
}

// ---- edge worker ----

namespace {

/// The worker's rebuilt slice of the run: the same deterministic
/// derivations the in-process coordinator constructor performs (dataset,
/// shards, per-client compute budgets, per-client links, codecs) from the
/// manifest's run config, minus everything server-side. Clients
/// materialize lazily — with crash re-homing a worker can be asked to train
/// ANY client, but usually only its own shard.
struct EdgeRuntime {
  RunManifest manifest;
  const FlRunConfig& config = manifest.config;
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

  FlClient& client(std::size_t i) {
    if (!clients[i])
      clients[i] = make_client(i, manifest.model, train, shards[i], config);
    return *clients[i];
  }
};

/// Run one cohort: train every client serially (training is deterministic
/// per client, so serial vs pooled changes nothing but wall time), then
/// fold the updates in the order the root's event pump will deliver them:
/// each upload after the client's compute budget, each arrival after its
/// transfer, ties in scheduling order. A virtual-clock queue of its own
/// replays exactly that, since the root's queue orders this edge's events
/// relative to each other the same way.
PartialMsg process_round(EdgeRuntime& rt, const RoundOpenMsg& open,
                         const StateDict& global) {
  PartialMsg msg;
  msg.round = open.round;
  std::vector<ReportedUpdate>& updates = msg.report.updates;
  std::vector<Bytes> payloads;  // by dispatch position
  net::EventQueue clock;
  clock.restore_clock(open.t_open, 0);
  EdgeAggregator& edge = rt.tree->node(0, rt.manifest.edge);
  const auto fold = [&](std::size_t k) {
    ClientDelivery& d = updates[k].delivery;
    CompressionStats decode_stats;
    const StateDict update = rt.codec->decode(view(payloads[k]), &decode_stats);
    d.decode_seconds = decode_stats.decompress_seconds;
    // Barrier schedulers fold in-round, so the staleness scale is 1 and
    // the aggregation weight is the bare sample count.
    edge.fold(update, static_cast<double>(d.samples));
  };
  for (std::size_t k = 0; k < open.cohort.size(); ++k) {
    const std::size_t i = open.cohort[k];
    ProducedUpdate update =
        produce_update(rt.client(i), global, open.round, *rt.codec,
                       rt.config.error_feedback ? &rt.feedback[i] : nullptr);
    updates.push_back({delivery_of(i, update), rt.compute_seconds[i]});
    const double transfer =
        rt.network.link(i).transfer_seconds(update.payload.size());
    payloads.push_back(std::move(update.payload));
    clock.schedule_after(rt.compute_seconds[i], [&, k, transfer] {
      clock.schedule_after(transfer, [&, k] { fold(k); });
    });
  }
  edge.begin_round(global);  // after training: its accumulator is model-sized
  while (clock.run_next()) {
  }
  msg.report.partial = edge.finalize_and_encode(open.round);
  return msg;
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

  // The fingerprint of the run this worker rebuilt, not the root's: the
  // root compares it with its own.
  ByteWriter ack;
  ack.put_u32(run_fingerprint(rt.config, rt.manifest.model));
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

namespace {

/// One worker connection as the root sees it: its channel, the thread
/// draining its frames into the shared inbox, and liveness bookkeeping.
struct Conn {
  std::unique_ptr<net::FrameChannel> chan;
  std::thread reader;
  Clock::time_point last_seen{};  // guarded by the inbox mutex
};

struct InboxEvent {
  std::size_t edge = 0;
  std::optional<net::Frame> frame;  // nullopt = disconnect/EOF
  std::string error;
};

}  // namespace

/// The wire side of the root: the worker connections, the inbox their
/// reader threads fill, and each edge's state in the open round. The round
/// engine is the coordinator, which reaches the workers through the
/// RemoteEdges overrides below.
struct FederatedRoot::Impl final : RemoteEdges {
  nn::ModelConfig model_config;
  DatasetSpec train_spec;
  std::string spec_string;
  FederationOptions options;
  std::uint32_t fingerprint = 0;
  std::unique_ptr<net::TcpListener> listener;
  std::unique_ptr<FlCoordinator> coordinator;

  std::mutex inbox_mutex;
  std::condition_variable inbox_cv;
  std::deque<InboxEvent> inbox;
  std::vector<Conn> conns;
  // Per edge: dead for the rest of the run; owing this round's PARTIAL;
  // the cohort sent to it and the report it sent back.
  std::vector<char> dead;
  std::vector<char> waiting;
  std::vector<std::vector<std::size_t>> cohorts;
  std::vector<std::optional<EdgeReport>> reports;
  int round = 0;
  Clock::time_point round_start{};

  std::size_t edges() const { return coordinator->topology()->edge_count(); }

  RunManifest manifest(std::uint32_t edge) const {
    return {spec_string, train_spec, model_config, coordinator->config(),
            edge, options.heartbeat_interval_seconds};
  }

  void push_event(InboxEvent event) {
    {
      std::lock_guard<std::mutex> lock(inbox_mutex);
      inbox.push_back(std::move(event));
    }
    inbox_cv.notify_all();
  }

  std::optional<InboxEvent> wait_event() {
    std::unique_lock<std::mutex> lock(inbox_mutex);
    if (!inbox_cv.wait_for(lock, std::chrono::milliseconds(200),
                           [&] { return !inbox.empty(); }))
      return std::nullopt;
    InboxEvent event = std::move(inbox.front());
    inbox.pop_front();
    return event;
  }

  /// Sends every worker its manifest and starts the thread that drains its
  /// frames into the inbox (a heartbeat only refreshes its last_seen).
  void connect(const std::vector<net::StreamPtr>& streams) {
    const std::size_t n = streams.size();
    conns = std::vector<Conn>(n);
    inbox.clear();
    dead.assign(n, 0);
    waiting.assign(n, 0);
    const auto start = Clock::now();
    for (std::size_t e = 0; e < n; ++e) {
      conns[e].chan = std::make_unique<net::FrameChannel>(streams[e]);
      conns[e].last_seen = start;
      const Bytes hello =
          serialize_manifest(manifest(static_cast<std::uint32_t>(e)));
      conns[e].chan->send(net::FrameType::kHello, view(hello));
      conns[e].reader = std::thread([this, e] { read_frames(e); });
    }
  }

  void read_frames(std::size_t e) {
    try {
      while (std::optional<net::Frame> frame = conns[e].chan->recv()) {
        std::lock_guard<std::mutex> lock(inbox_mutex);
        conns[e].last_seen = Clock::now();
        if (frame->type == net::FrameType::kHeartbeat) continue;
        inbox.push_back({e, std::move(*frame), ""});
        inbox_cv.notify_all();
      }
      push_event({e, std::nullopt, ""});
    } catch (const std::exception& error) {
      push_event({e, std::nullopt, error.what()});
    }
  }

  /// Every worker must ACK the fingerprint of the config it parsed, and its
  /// edge, before the first round — a worker built from different code (or
  /// fed a different manifest) fails here, not 40 rounds in. A worker that
  /// dies before its own ACK never confirmed its build, which is fatal. One
  /// that dies after it is a crash like any later one: its EOF goes back to
  /// the inbox for run_round(), so the outcome does not depend on how fast
  /// the other workers ACK.
  void handshake() {
    std::vector<char> acked(conns.size(), 0);
    std::vector<InboxEvent> deaths;
    std::size_t acks = 0;
    while (acks < conns.size()) {
      std::optional<InboxEvent> event = wait_event();
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
      if (fp != fingerprint || edge != event->edge)
        throw net::TransportError(
            "federation: worker " + std::to_string(event->edge) +
            " acked fingerprint " + std::to_string(fp) + " for edge " +
            std::to_string(edge) + ", expected fingerprint " +
            std::to_string(fingerprint) + " -- incompatible build or "
            "manifest");
      if (!acked[event->edge]) {
        acked[event->edge] = 1;
        ++acks;
      }
    }
    std::lock_guard<std::mutex> lock(inbox_mutex);
    inbox.insert(inbox.begin(), std::make_move_iterator(deaths.begin()),
                 std::make_move_iterator(deaths.end()));
  }

  /// Edge `e`'s worker is gone (EOF, a broken stream, or silence): it owes
  /// nothing more, and its clients re-home from the next round open.
  void crash(std::size_t e) {
    dead[e] = 1;
    waiting[e] = 0;
    conns[e].chan->close();
  }

  /// Whether `report` covers exactly the cohort sent to edge `e`, in its
  /// dispatch order: each member once and nobody else.
  bool matches_cohort(std::size_t e, const EdgeReport& report) const {
    const std::vector<std::size_t>& cohort = cohorts[e];
    if (report.updates.size() != cohort.size()) return false;
    for (std::size_t k = 0; k < cohort.size(); ++k)
      if (report.updates[k].delivery.client != cohort[k]) return false;
    return true;
  }

  /// Throws CorruptStream naming the first field of edge `e`'s cohort-
  /// matched `report` the root cannot trust: a leaf count other than the
  /// cohort size, a compute budget that is not finite and >= 0, or a weight
  /// other than the updates' summed samples (exact: barrier weights are
  /// integer sample counts).
  void check_partial(std::size_t e, const EdgeReport& report) const {
    const std::string from = "federation: PARTIAL from edge " +
                             std::to_string(e) + " reports ";
    const EncodedPartial& partial = report.partial;
    if (partial.clients != cohorts[e].size())
      throw CorruptStream(from + "clients=" + std::to_string(partial.clients) +
                          " for a cohort of " +
                          std::to_string(cohorts[e].size()));
    std::size_t samples = 0;
    for (const ReportedUpdate& update : report.updates) {
      if (!std::isfinite(update.compute_seconds) ||
          update.compute_seconds < 0.0)
        throw CorruptStream(from + "compute_seconds=" +
                            std::to_string(update.compute_seconds));
      samples += update.delivery.samples;
    }
    if (partial.weight != static_cast<double>(samples))
      throw CorruptStream(from + "weight=" + std::to_string(partial.weight) +
                          " for " + std::to_string(samples) + " samples");
  }

  void receive(InboxEvent event) {
    const std::size_t e = event.edge;
    if (dead[e]) return;  // whatever it queued before dying changes nothing
    if (!event.frame) {
      crash(e);
      return;
    }
    if (event.frame->type != net::FrameType::kPartial)
      throw CorruptStream("federation: expected PARTIAL, got " +
                          net::frame_type_name(event.frame->type));
    PartialMsg msg = parse_partial(view(event.frame->payload),
                                   coordinator->config().clients);
    if (msg.round != round)
      throw CorruptStream("federation: PARTIAL for round " +
                          std::to_string(msg.round) + " while round " +
                          std::to_string(round) + " is open");
    if (!waiting[e])
      throw CorruptStream("federation: unsolicited PARTIAL from edge " +
                          std::to_string(e));
    if (!matches_cohort(e, msg.report))
      throw CorruptStream("federation: PARTIAL from edge " +
                          std::to_string(e) + " does not match its cohort");
    check_partial(e, msg.report);
    reports[e] = std::move(msg.report);
    waiting[e] = 0;
  }

  /// Crashes every edge that owes a PARTIAL and was silent, heartbeats
  /// included, for longer than the timeout.
  void check_heartbeats() {
    const auto timeout = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(
            std::max(0.1, options.heartbeat_timeout_seconds)));
    const auto now = Clock::now();
    for (std::size_t e = 0; e < conns.size(); ++e) {
      if (!waiting[e]) continue;
      Clock::time_point seen;
      {
        std::lock_guard<std::mutex> lock(inbox_mutex);
        seen = conns[e].last_seen;
      }
      if (now - std::max(seen, round_start) > timeout) crash(e);
    }
  }

  void shutdown() {
    for (Conn& conn : conns) {
      if (conn.chan) conn.chan->close();
      if (conn.reader.joinable()) conn.reader.join();
    }
  }

  bool crashed(std::size_t edge) const override { return dead[edge]; }

  std::vector<std::optional<EdgeReport>> run_round(
      int r, double now, const std::vector<std::vector<std::size_t>>& drawn,
      const StateDict& global) override {
    round = r;
    cohorts = drawn;
    reports.assign(conns.size(), std::nullopt);
    ByteWriter broadcast_out;
    broadcast_out.put_varint(static_cast<std::uint64_t>(r));
    broadcast_out.put_blob(view(global.serialize()));
    const Bytes broadcast = broadcast_out.finish();
    for (std::size_t e = 0; e < conns.size(); ++e) {
      if (drawn[e].empty()) continue;
      const Bytes open = serialize_round_open({r, now, drawn[e]});
      waiting[e] = 1;
      try {
        conns[e].chan->send(net::FrameType::kRoundOpen, view(open));
        conns[e].chan->send(net::FrameType::kBroadcast, view(broadcast));
      } catch (const std::exception&) {
        crash(e);
      }
    }
    round_start = Clock::now();
    while (std::find(waiting.begin(), waiting.end(), 1) != waiting.end()) {
      if (std::optional<InboxEvent> event = wait_event())
        receive(std::move(*event));
      else
        check_heartbeats();
    }
    return std::move(reports);
  }
};

FederatedRoot::FederatedRoot(const nn::ModelConfig& model_config,
                             DatasetSpec train, data::DatasetPtr test,
                             FlRunConfig config, const CodecSpec& spec,
                             SchedulerPtr scheduler, FederationOptions options)
    : impl_(std::make_unique<Impl>()) {
  if (!config.downlink_spec.empty())
    throw InvalidArgument(
        "FederatedRoot: downlink compression is not distributed yet -- the "
        "broadcast ships lossless over the wire");
  if (!config.failures.empty())
    throw InvalidArgument(
        "FederatedRoot: injected failure schedules are in-process only; "
        "distributed churn comes from real worker crashes (heartbeats)");
  if (config.population.dropout_rate > 0.0)
    throw InvalidArgument(
        "FederatedRoot: population mid-round dropout is in-process only; "
        "remove drop= from population= when using transport=tcp");
  if (config.topology.edge_mode != EdgeMode::kSync)
    throw InvalidArgument(
        "FederatedRoot: distributed edges are sync-only (a buffered edge "
        "would need late client arrivals crossing the wire)");
  if (!config.checkpoint_path.empty() &&
      (config.error_feedback || config.topology.edge_error_feedback))
    throw InvalidArgument(
        "FederatedRoot: checkpoint= cannot be combined with ef=on or "
        "edgeef=on when using transport=tcp -- those residuals live in the "
        "edge workers, which a checkpoint does not capture");
  Impl& impl = *impl_;
  impl.model_config = model_config;
  impl.train_spec = std::move(train);
  impl.spec_string = format_codec_spec(spec);
  impl.options = options;
  // The coordinator validates the config and rejects a flat topology and
  // continuous schedulers.
  impl.coordinator = std::make_unique<FlCoordinator>(
      model_config, std::move(test), std::move(config), impl,
      std::move(scheduler));
  const FlRunConfig& resolved = impl.coordinator->config();
  impl.fingerprint = run_fingerprint(resolved, model_config);
  edge_count_ = impl.edges();
  const std::string& transport = resolved.transport;
  if (!transport.empty()) {
    // "tcp:<port>" was validated by FlRunConfig::validate(); port 0 asks
    // the kernel, so bind NOW to make port() meaningful before run().
    const std::uint16_t port =
        static_cast<std::uint16_t>(std::stoul(transport.substr(4)));
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
  return impl_->manifest(edge);
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

FlRunResult FederatedRoot::run_with_streams(
    std::vector<net::StreamPtr> streams) {
  Impl& impl = *impl_;
  if (streams.size() != edge_count_)
    throw InvalidArgument("FederatedRoot: got " +
                          std::to_string(streams.size()) + " streams for " +
                          std::to_string(edge_count_) + " edges");
  try {
    impl.connect(streams);
    impl.handshake();
    FlRunResult result = impl.coordinator->run();
    const Bytes empty;
    for (std::size_t e = 0; e < edge_count_; ++e) {
      if (impl.dead[e]) continue;
      try {
        impl.conns[e].chan->send(net::FrameType::kBye, view(empty));
      } catch (const std::exception&) {
        // A worker that died between its last partial and BYE changes
        // nothing; the campaign is complete.
      }
    }
    impl.shutdown();
    return result;
  } catch (...) {
    impl.shutdown();
    throw;
  }
}

}  // namespace fedsz::core
