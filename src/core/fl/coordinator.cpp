#include "core/fl/coordinator.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <future>
#include <memory>
#include <utility>

#include "core/codec_spec.hpp"
#include "core/fl/checkpoint.hpp"
#include "core/fl/round_steps.hpp"
#include "net/transport.hpp"
#include "net/virtual_clock.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace fedsz::core {

std::string delivery_status_name(DeliveryStatus status) {
  switch (status) {
    case DeliveryStatus::kAggregated:
      return "aggregated";
    case DeliveryStatus::kDropped:
      return "dropped";
    case DeliveryStatus::kEvicted:
      return "evicted";
    case DeliveryStatus::kLate:
      return "late";
    case DeliveryStatus::kIneligible:
      return "ineligible";
  }
  return "unknown";
}

void FailureSchedule::validate() const {
  if (!std::isfinite(dropout_rate) || dropout_rate < 0.0 ||
      dropout_rate > 1.0)
    throw InvalidArgument(
        "FailureSchedule: dropout_rate must be a probability in [0, 1]");
  if (!std::isfinite(edge_failure_rate) || edge_failure_rate < 0.0 ||
      edge_failure_rate > 1.0)
    throw InvalidArgument(
        "FailureSchedule: edge_failure_rate must be a probability in [0, 1]");
  if (!std::isfinite(straggler_deadline_seconds) ||
      straggler_deadline_seconds < 0.0)
    throw InvalidArgument(
        "FailureSchedule: straggler_deadline_seconds must be finite and >= 0 "
        "(0 disables the deadline)");
}

void FlRunConfig::apply_comm_spec(const CodecSpec& spec) {
  downlink_spec = spec.downlink;
  downlink_mode =
      spec.downlink_delta ? DownlinkMode::kDelta : DownlinkMode::kFull;
  error_feedback = spec.error_feedback;
  topology.mode =
      spec.hier_tiers.empty() ? TopologyMode::kFlat : TopologyMode::kHier;
  topology.tiers = spec.hier_tiers;
  topology.fanout = 0;  // the spec grammar always resolves to tiers
  topology.backhaul_spec = spec.backhaul;
  topology.tier_backhaul_specs = spec.tier_backhauls;
  topology.edge_mode =
      spec.edge_buffered ? EdgeMode::kBuffered : EdgeMode::kSync;
  topology.edge_buffer = spec.edge_buffer;
  topology.edge_error_feedback = spec.edge_error_feedback;
  topology.sharding = spec.shard_shuffled ? ShardStrategy::kShuffled
                                          : ShardStrategy::kContiguous;
  transport = spec.transport;
  checkpoint_path = spec.checkpoint_path;
  checkpoint_every = spec.checkpoint_every;
  dirichlet_alpha = spec.dirichlet_alpha;
  sizeskew_s = spec.sizeskew_s;
  population = spec.population.empty() ? PopulationConfig{}
                                       : parse_population_spec(spec.population);
}

void FlRunConfig::validate() const {
  if (clients == 0)
    throw InvalidArgument("FlRunConfig: need at least one client");
  if (rounds <= 0) throw InvalidArgument("FlRunConfig: rounds must be >= 1");
  if (threads == 0) throw InvalidArgument("FlRunConfig: threads must be >= 1");
  if (!(compute_seconds_per_sample >= 0.0) ||
      !std::isfinite(compute_seconds_per_sample))
    throw InvalidArgument(
        "FlRunConfig: compute_seconds_per_sample must be finite and >= 0");
  if (!(compute_jitter >= 0.0) || compute_jitter >= 1.0)
    throw InvalidArgument("FlRunConfig: compute_jitter must be in [0, 1)");
  if (client.local_epochs <= 0)
    throw InvalidArgument("FlRunConfig: local_epochs must be >= 1");
  if (client.batch_size == 0)
    throw InvalidArgument("FlRunConfig: batch_size must be >= 1");
  if (!downlink_spec.empty()) {
    // Malformed specs throw InvalidArgument from the parser itself.
    if (parse_codec_spec(downlink_spec).has_comm_keys())
      throw InvalidArgument(
          "FlRunConfig: downlink_spec cannot itself carry comm keys");
  } else if (downlink_mode == DownlinkMode::kDelta) {
    // Catch the downmode=delta-without-downlink= mistake loudly instead of
    // silently running with a free lossless broadcast.
    throw InvalidArgument(
        "FlRunConfig: downlink_mode=kDelta requires a downlink_spec");
  }
  if (!(dirichlet_alpha >= 0.0) || !std::isfinite(dirichlet_alpha))
    throw InvalidArgument(
        "FlRunConfig: dirichlet_alpha must be finite and >= 0 (0 = IID)");
  if (!(sizeskew_s >= 0.0) || !std::isfinite(sizeskew_s))
    throw InvalidArgument(
        "FlRunConfig: sizeskew_s must be finite and >= 0 (0 = off)");
  population.validate();
  if (!population.empty() && heterogeneous)
    throw InvalidArgument(
        "FlRunConfig: population and heterogeneous both configure per-client "
        "links; set at most one");
  failures.validate();
  if (failures.edge_failure_rate > 0.0 && topology.mode != TopologyMode::kHier)
    throw InvalidArgument(
        "FlRunConfig: failures.edge_failure_rate needs an edge tier to "
        "crash -- set topology=hier:<N>[x<M>...]");
  topology.validate();
  if (!transport.empty()) {
    if (transport.rfind("tcp:", 0) != 0)
      throw InvalidArgument(
          "FlRunConfig: transport must be empty (inproc) or tcp:<port>");
    if (topology.mode != TopologyMode::kHier)
      throw InvalidArgument(
          "FlRunConfig: transport=tcp needs edge cohorts to distribute -- "
          "set topology=hier:<N>");
  }
  if (checkpoint_path.empty()) {
    if (checkpoint_every != 0 || resume)
      throw InvalidArgument(
          "FlRunConfig: checkpoint_every/resume need a checkpoint_path");
  } else if (checkpoint_every == 0) {
    throw InvalidArgument(
        "FlRunConfig: checkpoint_path needs checkpoint_every >= 1");
  }
}

namespace {

FlRunConfig validated(FlRunConfig config) {
  config.validate();
  return config;
}

}  // namespace

net::HeterogeneousNetwork build_population_network(
    const FlRunConfig& config, const ClientPopulation* population) {
  if (population)
    return net::HeterogeneousNetwork::from_profiles(
        population->link_profiles());
  return net::build_links(config.heterogeneous, config.network,
                          config.clients);
}

std::vector<std::vector<std::size_t>> build_client_shards(
    const data::Dataset& train, const FlRunConfig& config,
    const ClientPopulation* population) {
  Rng rng(config.seed);
  auto shards = config.dirichlet_alpha > 0.0
                    ? data::partition_dirichlet(data::dataset_labels(train),
                                                config.clients,
                                                config.dirichlet_alpha, rng)
                    : data::partition_iid(train.size(), config.clients, rng);
  // A heavily skewed Dirichlet draw can leave a client with no samples;
  // an empty shard cannot train, so deterministically move one sample over
  // from the largest shard (conservation holds, skew barely changes).
  if (config.dirichlet_alpha > 0.0) data::ensure_nonempty_shards(shards);
  if (config.sizeskew_s > 0.0) {
    // Its own stream, so turning size skew on leaves the base partition
    // byte-identical to a sizeskew-free run.
    Rng skew_rng(config.seed ^ 0x517E55EDull);
    data::apply_sizeskew(shards, config.sizeskew_s, skew_rng);
  }
  if (population) {
    // Device-class data weight: a phone holds a fraction of what a laptop
    // does. The shard is already shuffled, so a prefix is an unbiased
    // subsample and costs no randomness.
    for (std::size_t i = 0; i < shards.size(); ++i) {
      if (shards[i].empty()) continue;
      const double weight = population->data_weight(i);
      std::size_t keep = static_cast<std::size_t>(
          std::llround(weight * static_cast<double>(shards[i].size())));
      keep = std::min(std::max<std::size_t>(keep, 1), shards[i].size());
      shards[i].resize(keep);
    }
  }
  return shards;
}

FlCoordinator::FlCoordinator(const nn::ModelConfig& model_config,
                             data::DatasetPtr train, data::DatasetPtr test,
                             FlRunConfig config, UpdateCodecPtr codec,
                             SchedulerPtr scheduler)
    : FlCoordinator(model_config, std::move(train), std::move(test),
                    std::move(config), std::move(codec), std::move(scheduler),
                    nullptr) {
  if (!codec_) throw InvalidArgument("FlCoordinator: null update codec");
}

FlCoordinator::FlCoordinator(const nn::ModelConfig& model_config,
                             data::DatasetPtr test, FlRunConfig config,
                             RemoteEdges& edges, SchedulerPtr scheduler)
    : FlCoordinator(model_config, nullptr, std::move(test), std::move(config),
                    nullptr, std::move(scheduler), &edges) {
  if (!tree_)
    throw InvalidArgument(
        "FlCoordinator: remote edges need a hierarchical topology");
}

FlCoordinator::FlCoordinator(const nn::ModelConfig& model_config,
                             data::DatasetPtr train, data::DatasetPtr test,
                             FlRunConfig config, UpdateCodecPtr codec,
                             SchedulerPtr scheduler, RemoteEdges* remote)
    : model_config_(model_config),
      test_(std::move(test)),
      config_(validated(std::move(config))),
      codec_(std::move(codec)),
      scheduler_(scheduler ? std::move(scheduler) : make_sync_scheduler()),
      server_(model_config),
      population_(make_population(config_)),
      network_(build_population_network(config_, population_.get())),
      remote_(remote) {
  if (!config_.failures.empty() && scheduler_->continuous())
    // Continuous policies have no round barrier to drop out of or be
    // evicted from; their own staleness handling IS the churn model.
    throw InvalidArgument(
        "FlCoordinator: failure injection requires a barrier scheduler "
        "(sync or sampled_sync)");
  if (population_ && scheduler_->continuous())
    // Eligibility is a round-open concept; a continuous policy has no round
    // open to gate, so the combination would silently ignore availability.
    throw InvalidArgument(
        "FlCoordinator: a client population requires a barrier scheduler "
        "(sync or sampled_sync)");
  if (!config_.checkpoint_path.empty()) {
    // A checkpoint captures state BETWEEN rounds, when the event queue is
    // provably empty. Regimes that keep events alive across a round close
    // (continuous redispatch, pending straggler deadlines, buffered
    // interior nodes with late deliveries in flight) would need the queue
    // itself serialized — closures and all — so they are rejected loudly.
    if (scheduler_->continuous())
      throw InvalidArgument(
          "FlCoordinator: checkpointing requires a barrier scheduler "
          "(sync or sampled_sync)");
    if (config_.failures.straggler_deadline_seconds > 0.0)
      throw InvalidArgument(
          "FlCoordinator: checkpointing is incompatible with a straggler "
          "deadline (its eviction event outlives the round close)");
    if (config_.topology.edge_mode == EdgeMode::kBuffered)
      throw InvalidArgument(
          "FlCoordinator: checkpointing requires edgemode=sync (buffered "
          "rounds can close with deliveries still in flight)");
  }
  if (config_.topology.mode == TopologyMode::kHier) {
    // Continuous policies redispatch on fold; a partial that already left
    // for the root cannot absorb a late fold, so hierarchy requires a
    // barrier over each edge cohort.
    if (scheduler_->continuous())
      throw InvalidArgument(
          "FlCoordinator: hierarchical topology requires a barrier "
          "scheduler (sync or sampled_sync)");
    tree_ = std::make_unique<AggregationTree>(
        with_shard_seed(config_.topology, config_.seed), config_.clients);
  }
  if (!config_.downlink_spec.empty())
    downlink_ = std::make_unique<DownlinkChannel>(
        DownlinkConfig{config_.downlink_mode,
                       make_codec(parse_codec_spec(config_.downlink_spec))},
        config_.clients);
  feedback_.resize(config_.clients);
  if (remote_) {
    // Remote edges train their own clients and report each budget.
    compute_seconds_.assign(config_.clients, 0.0);
    return;
  }
  const auto shards = build_client_shards(*train, config_, population_.get());
  for (std::size_t i = 0; i < config_.clients; ++i)
    clients_.push_back(
        make_client(i, model_config_, train, shards[i], config_));
  compute_seconds_ =
      client_compute_budgets(config_, shards, population_.get());
}

FlRunResult FlCoordinator::run() {
  Timer wall;
  FlRunResult result;
  result.scheduler = scheduler_->name();

  // What a dispatched client hands back once its real work (broadcast
  // decode + local SGD + update encoding on the pool, or a remote edge's
  // report) completes.
  struct WorkerOut {
    ClientDelivery delivery;
    Bytes payload;  // empty when a remote edge decoded the update itself
    double downlink_decode_seconds = 0.0;  // per-client broadcast decode
  };
  // One slot per client; a client has at most one update in flight.
  struct InFlight {
    std::future<WorkerOut> future;
    WorkerOut out;
    int dispatch_round = 0;
    double dispatch_seconds = 0.0;
    double transfer_seconds = 0.0;
    DownlinkLeg downlink;  // decode_seconds: the kFull shared decode
  };
  // Shared kFull broadcast product: encoded once, decoded once, delivered
  // down the tree. Hoisted so the recursive fan-out handler can name it.
  struct BroadcastReady {
    Bytes payload;
    CompressionStats stats;
    std::shared_ptr<const StateDict> model;  // the shared reconstruction
    double decode_seconds = 0.0;
  };

  net::EventQueue queue;
  std::vector<InFlight> flights(config_.clients);
  RoundStreams streams(config_.seed);
  // Churn draws ride their own stream: a failure-free run consumes exactly
  // the randomness it did before churn existed, keeping trajectory pins.
  Rng failure_rng(config_.failures.seed
                      ? config_.failures.seed
                      : (config_.seed ^ 0xFA17A1E5ull));
  int completed = 0;  // aggregations finished so far
  bool stopped = false;
  RoundRecord record;

  // Per-client lifecycle. Every scheduled client event carries the
  // generation it was dispatched under; eviction or redispatch bumps it, so
  // stale upload/arrival events for a superseded dispatch become no-ops.
  enum class Phase : std::uint8_t { kIdle, kPending, kDone, kDropped,
                                    kEvicted };
  std::vector<Phase> phase(config_.clients, Phase::kIdle);
  std::vector<std::uint64_t> generation(config_.clients, 0);
  std::vector<char> dropped(config_.clients, 0);  // this round's dropout draws
  // Tier-1 edge owning each client THIS round (crash re-sharding moves it).
  std::vector<std::size_t> owner_round(config_.clients, 0);
  // The aggregation point folding client i's update (see ClientTraceEntry).
  const auto node_of = [&](std::size_t i) -> std::size_t {
    return tree_ ? 1 + tree_->flat_index(0, owner_round[i]) : 0;
  };

  // Root state: arrivals folded/merged since the round opened and the count
  // that closes it (updates when flat, top-tier partials when hier).
  std::size_t root_folded = 0;
  std::size_t root_goal = 0;
  // Shipped partials whose arrival event has not executed yet. Whatever is
  // still in flight when the run stops never merges anywhere — fold those
  // into late_events at exit so weight that left an edge is always either
  // merged, traced kLate, or counted late.
  std::size_t partials_in_flight = 0;

  const std::size_t levels = tree_ ? tree_->levels() : 0;
  const std::size_t interior = tree_ ? tree_->interior_nodes() : 0;
  const std::size_t edge_count = tree_ ? tree_->edge_count() : 0;
  const bool buffered =
      tree_ && config_.topology.edge_mode == EdgeMode::kBuffered;
  const std::size_t buffer_k = config_.topology.edge_buffer;

  // Per-aggregation-point decoded-payload accounting: node 0 = the root,
  // 1 + flat_index for interior nodes. Streaming keeps every live count
  // at <= 1.
  std::vector<std::size_t> live(1 + interior, 0);
  std::vector<std::size_t> peak(1 + interior, 0);

  // Per-node round state (hier only). `expected` counts the children still
  // promised this round — it starts at the cohort/child draw and shrinks
  // when a child drops, is evicted or withdraws, while `folded` only grows;
  // folded >= expected is the sync ship condition.
  struct NodeRound {
    bool participating = false;  // had >= 1 expected child this round
    bool open = false;           // still accepting folds
    std::size_t expected = 0;
    std::size_t folded = 0;
  };
  std::vector<std::vector<NodeRound>> nodes(levels);
  for (std::size_t l = 0; l < levels; ++l) nodes[l].resize(tree_->level_size(l));
  // This round's member set per tier-1 edge (after crash re-sharding; a
  // flat run is one edge holding everyone) and the drawn cohort, in
  // dispatch order.
  std::vector<std::vector<std::size_t>> edge_members(tree_ ? edge_count : 1);
  if (!tree_)
    for (std::size_t i = 0; i < config_.clients; ++i)
      edge_members[0].push_back(i);
  std::vector<std::vector<std::size_t>> edge_cohort;
  // Participating children of each node above tier 1 (level l-1 indices).
  std::vector<std::vector<std::vector<std::size_t>>> children_part(levels);
  for (std::size_t l = 1; l < levels; ++l)
    children_part[l].resize(tree_->level_size(l));
  // Broadcast traffic charged to each interior node's link this round.
  std::vector<std::size_t> node_downlink_bytes(interior, 0);
  std::vector<double> node_downlink_seconds(interior, 0.0);
  // This round's partial from each remote tier-1 edge, shipped when the
  // pump has delivered the edge's last update.
  std::vector<std::shared_ptr<const EncodedPartial>> remote_partials(
      remote_ ? edge_count : 0);

  using Snapshot = std::shared_ptr<const StateDict>;
  using PayloadPtr = std::shared_ptr<const Bytes>;

  // The client's real work, run on the pool: decode the broadcast payload
  // when one was delivered (per-client path), then train and encode on the
  // resulting model. Per-client state (feedback_[i], downlink session i) is
  // safe without locks because a client never has two tasks alive at once
  // (dispatch waits out a stale evicted task before reusing the slot).
  auto client_work = [this](std::size_t i, int round, Snapshot model,
                            PayloadPtr broadcast) -> WorkerOut {
    WorkerOut out;
    StateDict decoded_model;
    const StateDict* train_on = model.get();
    if (broadcast) {
      CompressionStats downlink_stats;
      const ByteSpan span{broadcast->data(), broadcast->size()};
      decoded_model = downlink_->mode() == DownlinkMode::kDelta
                          ? downlink_->receive(i, span, &downlink_stats)
                          : downlink_->decode_broadcast(span, &downlink_stats);
      out.downlink_decode_seconds = downlink_stats.decompress_seconds;
      train_on = &decoded_model;
    }
    ProducedUpdate update =
        produce_update(*clients_[i], *train_on, round, *codec_,
                       config_.error_feedback ? &feedback_[i] : nullptr);
    out.delivery = delivery_of(i, update);
    out.payload = std::move(update.payload);
    return out;
  };

  // Declared after client_work (and the flight/record state above) so the
  // pool destructor can still drain in-flight tasks that reference them.
  ThreadPool pool(std::max<std::size_t>(1, config_.threads));
  std::function<void(std::size_t, int, Snapshot, PayloadPtr)> dispatch;
  std::function<void(std::size_t, int, Snapshot)> send_to;
  std::function<void(std::size_t, std::size_t, int,
                     std::shared_ptr<const std::vector<std::size_t>>,
                     PayloadPtr)>
      send_hop;
  std::function<void(const std::vector<std::size_t>&, int, Snapshot)>
      broadcast_to;
  std::function<void(std::size_t, int, std::shared_ptr<const BroadcastReady>)>
      deliver_client;
  std::function<void(std::size_t, std::size_t, int,
                     std::shared_ptr<const BroadcastReady>)>
      deliver_subtree;
  std::function<void(std::size_t, std::uint64_t)> on_upload;
  std::function<void(std::size_t, std::uint64_t)> on_arrival;
  std::function<void(std::size_t, std::uint64_t)> on_drop;
  std::function<void(std::size_t, std::size_t)> check_node;
  std::function<void(std::size_t, std::size_t)> ship_node;
  std::function<void(std::size_t, std::size_t)> withdraw_node;
  std::function<void(std::size_t, std::size_t)> node_lost_child;
  std::function<void(std::size_t, std::size_t, int, double,
                     std::shared_ptr<const EncodedPartial>)>
      on_partial;
  std::function<void()> maybe_close_root;
  std::function<void()> evict_stragglers;
  std::function<void()> close_round;
  std::function<void(bool)> open_round;

  // Snapshot everything that evolves across rounds. Only called between
  // rounds (from close_round, before the next open), where the barrier
  // restrictions enforced in the constructor guarantee an empty queue —
  // the virtual clock pair (now, next_seq) then fully determines resumed
  // event ordering.
  auto save_checkpoint = [&] {
    if (queue.pending() != 0)
      throw InvalidArgument(
          "FlCoordinator: internal error -- pending events at checkpoint");
    CheckpointState state;
    state.completed_rounds = static_cast<std::uint64_t>(completed);
    state.virtual_now = queue.now();
    state.clock_next_seq = queue.next_seq();
    state.config_fingerprint = run_fingerprint(config_, model_config_);
    state.global_state = server_.global_state();
    state.aggregator_name = server_.aggregator().name();
    ByteWriter aggregator_out;
    server_.aggregator().save_state(aggregator_out);
    state.aggregator_state = aggregator_out.finish();
    state.cohort_rng = streams.cohort.state();
    state.failure_rng = failure_rng.state();
    state.eligibility_rng = streams.eligibility.state();
    state.client_residuals.reserve(feedback_.size());
    for (const ErrorFeedbackAccumulator& fb : feedback_)
      state.client_residuals.push_back(fb.residual());
    if (downlink_ && downlink_->mode() == DownlinkMode::kDelta)
      state.downlink_sessions = downlink_->sessions();
    if (tree_ && config_.topology.edge_error_feedback)
      for (std::size_t l = 0; l < levels; ++l)
        for (std::size_t n = 0; n < tree_->level_size(l); ++n)
          state.edge_residuals.push_back(
              tree_->node(l, n).feedback().residual());
    write_checkpoint(config_.checkpoint_path, state);
  };

  // Start a client's real work on the pool and its virtual compute timer.
  // `model` is the state it trains on (the global snapshot, or the shared
  // kFull broadcast reconstruction); `broadcast` (per-client downlink path)
  // makes the worker decode its own payload first. A client drawn as a
  // dropout this round never reaches the pool: it "trains" for half its
  // compute budget and vanishes. A remote client already trained on its
  // edge; only its virtual compute timer runs here.
  dispatch = [&](std::size_t i, int round, Snapshot model,
                 PayloadPtr broadcast) {
    InFlight& flight = flights[i];
    // An evicted client's pool task may still be running; finish it before
    // reusing the per-client state it touches (feedback_, the client).
    if (flight.future.valid()) flight.future.wait();
    flight.dispatch_round = round;
    flight.dispatch_seconds = queue.now();
    const std::uint64_t gen = ++generation[i];
    phase[i] = Phase::kPending;
    if (dropped[i]) {
      queue.schedule_after(0.5 * compute_seconds_[i],
                           [&, i, gen] { on_drop(i, gen); });
      return;
    }
    if (!remote_)
      flight.future = pool.submit([&client_work, i, round, model, broadcast] {
        return client_work(i, round, std::move(model), std::move(broadcast));
      });
    queue.schedule_after(compute_seconds_[i],
                         [&, i, gen] { on_upload(i, gen); });
  };

  // Per-client downlink: encode this client's broadcast on the pool (the
  // whole global, or its session delta in kDelta mode), then charge the
  // payload against every hop on its path — each ancestor node's own link
  // top-down under a hierarchical topology — before the client's own link
  // and compute may start.
  send_to = [&](std::size_t i, int round, Snapshot snapshot) {
    const bool delta = downlink_->mode() == DownlinkMode::kDelta;
    auto pending = std::make_shared<std::future<BroadcastPayload>>(
        pool.submit([this, delta, i, round, snapshot] {
          return delta ? downlink_->encode_for_client(i, *snapshot, round)
                       : downlink_->encode_broadcast(*snapshot, round);
        }));
    queue.schedule_after(0.0, [&, i, round, pending] {
      BroadcastPayload broadcast = pending->get();
      InFlight& flight = flights[i];
      auto payload = std::make_shared<const Bytes>(
          std::move(broadcast.payload));
      flight.downlink.bytes = payload->size();
      flight.downlink.raw_bytes = broadcast.stats.original_bytes;
      flight.downlink.encode_seconds = broadcast.stats.compress_seconds;
      flight.downlink.decode_seconds = 0.0;
      flight.downlink.seconds =
          network_.link(i).transfer_seconds(payload->size());
      // The client's ancestor chain, bottom-up: path[l] is the node at
      // level l the payload crosses on its way down (none on a flat run).
      auto path = std::make_shared<std::vector<std::size_t>>();
      for (std::size_t l = 0; l < levels; ++l)
        path->push_back(l == 0 ? owner_round[i]
                               : tree_->parent_of(l - 1, path->back()));
      send_hop(0, i, round, path, payload);
    });
  };

  // Charge one broadcast crossing of node (l, n)'s link; returns its
  // virtual seconds.
  const auto charge_hop = [&](std::size_t l, std::size_t n,
                              std::size_t bytes) {
    const std::size_t flat = tree_->flat_index(l, n);
    const double hop = tree_->uplink(l, n).transfer_seconds(bytes);
    node_downlink_bytes[flat] += bytes;
    node_downlink_seconds[flat] += hop;
    record.backhaul_downlink_bytes += bytes;
    record.backhaul_downlink_seconds += hop;
    return hop;
  };

  // Hop `k` (0 = topmost: root -> top-tier node) of a per-client downlink
  // path; after the last interior hop comes the client's own link.
  send_hop = [&](std::size_t k, std::size_t i, int round,
                 std::shared_ptr<const std::vector<std::size_t>> path,
                 PayloadPtr payload) {
    if (k == levels) {
      queue.schedule_after(flights[i].downlink.seconds, [&, i, round, payload] {
        dispatch(i, round, nullptr, payload);
      });
      return;
    }
    const std::size_t l = levels - 1 - k;
    const double hop = charge_hop(l, (*path)[l], payload->size());
    queue.schedule_after(hop, [&, k, i, round, path, payload] {
      send_hop(k + 1, i, round, path, payload);
    });
  };

  // The last downlink leg: charge the shared broadcast payload against the
  // client's own link, then dispatch on the shared reconstruction.
  deliver_client = [&](std::size_t i, int round,
                       std::shared_ptr<const BroadcastReady> ready) {
    InFlight& flight = flights[i];
    flight.downlink.bytes = ready->payload.size();
    flight.downlink.raw_bytes = ready->stats.original_bytes;
    flight.downlink.encode_seconds = ready->stats.compress_seconds;
    flight.downlink.decode_seconds = ready->decode_seconds;
    flight.downlink.seconds =
        network_.link(i).transfer_seconds(ready->payload.size());
    queue.schedule_after(flight.downlink.seconds,
                         [&, i, round, model = ready->model] {
                           dispatch(i, round, model, nullptr);
                         });
  };

  // Hierarchical kFull fan-out: ONE copy of the broadcast crosses each
  // participating node's link, recursing level by level; a subtree's
  // clients start their own downlink legs when it reaches their edge.
  deliver_subtree = [&](std::size_t l, std::size_t n, int round,
                        std::shared_ptr<const BroadcastReady> ready) {
    const double hop = charge_hop(l, n, ready->payload.size());
    queue.schedule_after(hop, [&, l, n, round, ready] {
      if (l == 0) {
        for (const std::size_t i : edge_cohort[n])
          deliver_client(i, round, ready);
      } else {
        for (const std::size_t c : children_part[l][n])
          deliver_subtree(l - 1, c, round, ready);
      }
    });
  };

  // kFull cohort broadcast: encode the global ONCE on the pool (overlapped
  // with the event pump), decode it once — every client reconstructs the
  // same model — and fan the same payload out (flat: straight to each
  // client; hier: down the participating subtrees).
  broadcast_to = [&](const std::vector<std::size_t>& cohort, int round,
                     Snapshot snapshot) {
    auto pending = std::make_shared<std::future<BroadcastReady>>(
        pool.submit([this, round, snapshot]() -> BroadcastReady {
          BroadcastReady ready;
          BroadcastPayload broadcast =
              downlink_->encode_broadcast(*snapshot, round);
          CompressionStats decode_stats;
          ready.model = std::make_shared<const StateDict>(
              downlink_->decode_broadcast(
                  {broadcast.payload.data(), broadcast.payload.size()},
                  &decode_stats));
          ready.payload = std::move(broadcast.payload);
          ready.stats = broadcast.stats;
          ready.decode_seconds = decode_stats.decompress_seconds;
          return ready;
        }));
    queue.schedule_after(0.0, [&, cohort, round, pending] {
      auto ready = std::make_shared<const BroadcastReady>(pending->get());
      if (!tree_) {
        for (const std::size_t i : cohort) deliver_client(i, round, ready);
        return;
      }
      const std::size_t top = levels - 1;
      for (std::size_t n = 0; n < nodes[top].size(); ++n)
        if (nodes[top][n].participating)
          deliver_subtree(top, n, round, ready);
    });
  };

  // Whether a client event still belongs to a live dispatch. A stale
  // generation or a non-pending phase means this dispatch was superseded
  // (evicted, or its round closed under it); kIdle specifically means the
  // round already closed — count it, the record is immutable.
  const auto live_dispatch = [&](std::size_t i, std::uint64_t gen) {
    if (stopped || gen != generation[i]) return false;
    if (phase[i] == Phase::kIdle) ++result.late_events;
    return phase[i] == Phase::kPending;
  };

  // Virtual compute done: collect the encoded update (waiting for the real
  // work if it is still running) and put it on this client's link.
  on_upload = [&](std::size_t i, std::uint64_t gen) {
    if (!live_dispatch(i, gen)) return;
    InFlight& flight = flights[i];
    if (!remote_) flight.out = flight.future.get();
    flight.transfer_seconds =
        network_.link(i).transfer_seconds(flight.out.delivery.payload_bytes);
    queue.schedule_after(flight.transfer_seconds,
                         [&, i, gen] { on_arrival(i, gen); });
  };

  // Close the current aggregation once everything the root still expects
  // has merged. Guarded so churn paths can call it opportunistically.
  maybe_close_root = [&] {
    if (!stopped && root_folded >= root_goal) close_round();
  };

  close_round = [&] {
    finish_round(record, server_, queue.now(), config_, *test_);
    result.rounds.push_back(std::move(record));
    ++completed;
    if (!config_.checkpoint_path.empty() &&
        static_cast<std::size_t>(completed) % config_.checkpoint_every == 0)
      save_checkpoint();
    if (completed >= config_.rounds)
      stopped = true;
    else
      open_round(false);
  };

  // Per-node ship/withdraw machinery (hier only). A node ships when every
  // still-promised child delivered (or, buffered, after min(K, expected)
  // folds); a node whose whole expectation churned away withdraws, which
  // cascades one level up.
  check_node = [&](std::size_t l, std::size_t n) {
    NodeRound& s = nodes[l][n];
    if (!s.participating || !s.open) return;
    if (s.folded == 0) {
      if (s.expected == 0) withdraw_node(l, n);
      return;
    }
    const std::size_t target =
        buffered ? std::min(buffer_k, s.expected) : s.expected;
    if (s.folded >= target) ship_node(l, n);
  };

  ship_node = [&](std::size_t l, std::size_t n) {
    nodes[l][n].open = false;
    auto partial = remote_ && l == 0
                       ? std::move(remote_partials[n])
                       : std::make_shared<const EncodedPartial>(
                             tree_->node(l, n).finalize_and_encode(completed));
    ++partials_in_flight;
    const double transfer =
        tree_->uplink(l, n).transfer_seconds(partial->payload.size());
    queue.schedule_after(transfer,
                         [&, l, n, round = completed, transfer, partial] {
                           on_partial(l, n, round, transfer, partial);
                         });
  };

  withdraw_node = [&](std::size_t l, std::size_t n) {
    NodeRound& s = nodes[l][n];
    s.open = false;
    s.participating = false;
    tree_->node(l, n).abort_round();
    if (l + 1 == levels) {
      if (root_goal > 0) --root_goal;
      maybe_close_root();
    } else {
      node_lost_child(l + 1, tree_->parent_of(l, n));
    }
  };

  node_lost_child = [&](std::size_t l, std::size_t n) {
    NodeRound& s = nodes[l][n];
    if (s.expected > 0) --s.expected;
    check_node(l, n);
  };

  // Trace a dispatched client that will deliver nothing (weight 0), at
  // the moment it went silent or the server gave up on it.
  const auto trace_flight = [&](std::size_t i, DeliveryStatus status) {
    const InFlight& f = flights[i];
    trace_undelivered(record, i, node_of(i), status, f.dispatch_round,
                      f.dispatch_seconds, queue.now(), population_.get(),
                      f.downlink);
  };

  // A client drawn as a dropout vanished mid-round: trace it and release
  // its aggregation point from waiting on it.
  on_drop = [&](std::size_t i, std::uint64_t gen) {
    if (stopped) return;
    if (gen != generation[i] || phase[i] != Phase::kPending) return;
    phase[i] = Phase::kDropped;
    trace_flight(i, DeliveryStatus::kDropped);
    if (!tree_) {
      // Barrier goals equal the cohort size, so one fewer possible arrival
      // is one fewer to wait for.
      if (root_goal > 0) --root_goal;
      maybe_close_root();
    } else {
      node_lost_child(0, owner_round[i]);
    }
  };

  // An update reached its aggregation point — the root (flat) or the
  // owning edge (hier): decode it (serially per node — at most one decoded
  // update is ever alive there), fold it into that node's streaming
  // accumulator, score the Eqn (1) decision against this client's own
  // link, and trigger the node's close-out once its goal is met. A remote
  // edge decoded and folded the update itself; only the accounting runs.
  on_arrival = [&](std::size_t i, std::uint64_t gen) {
    if (!live_dispatch(i, gen)) return;
    phase[i] = Phase::kDone;
    InFlight& flight = flights[i];
    WorkerOut out = std::exchange(flight.out, {});
    const std::size_t e = owner_round[i];  // 0 on a flat run
    const std::size_t node_id = node_of(i);

    ClientDelivery delivery = std::move(out.delivery);
    delivery.node = node_id;
    delivery.dispatch_round = flight.dispatch_round;
    delivery.dispatch_seconds = flight.dispatch_seconds;
    delivery.arrival_seconds = queue.now();
    delivery.transfer_seconds = flight.transfer_seconds;
    delivery.downlink = flight.downlink;
    delivery.downlink.decode_seconds += out.downlink_decode_seconds;

    if (tree_ && !nodes[0][e].open) {
      // Its buffered edge already shipped: the update landed with nowhere
      // to fold. Trace it, but keep it out of every round total.
      trace_delivery(record, delivery, population_.get()).status =
          DeliveryStatus::kLate;
      return;
    }

    delivery.weight =
        static_cast<double>(delivery.samples) *
        scheduler_->staleness_scale(flight.dispatch_round, completed);
    if (remote_) {
      peak[node_id] = std::max<std::size_t>(peak[node_id], 1);
    } else {
      CompressionStats decode_stats;
      StateDict update = codec_->decode(
          {out.payload.data(), out.payload.size()}, &decode_stats);
      ++live[node_id];
      peak[node_id] = std::max(peak[node_id], live[node_id]);
      if (tree_) {
        tree_->node(0, e).fold(update, delivery.weight);
      } else {
        server_.accumulate(update, delivery.weight);
        record.aggregate_weight += delivery.weight;
      }
      update = StateDict();  // folded; free it before anything else arrives
      --live[node_id];
      delivery.decode_seconds = decode_stats.decompress_seconds;
    }
    account_delivery(record, delivery, population_.get(), network_.link(i));

    if (!tree_) {
      ++root_folded;
      if (root_folded >= root_goal) close_round();
    } else {
      ++nodes[0][e].folded;
      check_node(0, e);
    }
    if (!stopped && scheduler_->continuous()) {
      const auto snapshot =
          std::make_shared<const StateDict>(server_.global_state());
      if (downlink_) {
        // Continuous policies leave with the freshest global, so every
        // redispatch is its own (per-client) broadcast.
        send_to(i, completed, snapshot);
      } else {
        dispatch(i, completed, snapshot, nullptr);
      }
    }
  };

  // A node's re-encoded partial crossed its uplink: merge it one level up —
  // into its parent's streaming accumulator, or into the server when it
  // shipped from the top tier. Partials for a closed round or a parent that
  // already shipped merge nowhere (counted/traced, never totaled).
  on_partial = [&](std::size_t l, std::size_t n, int round, double transfer,
                   std::shared_ptr<const EncodedPartial> partial) {
    --partials_in_flight;
    if (stopped) return;
    if (round != completed) {
      ++result.late_events;
      return;
    }
    const std::size_t flat = tree_->flat_index(l, n);
    EdgeTraceEntry trace =
        partial_trace(*partial, flat, l, transfer, queue.now());
    trace.downlink_bytes = node_downlink_bytes[flat];
    trace.downlink_seconds = node_downlink_seconds[flat];

    const bool at_root = l + 1 == levels;
    std::size_t parent = 0;
    std::size_t decode_node = 0;  // the root
    if (!at_root) {
      parent = tree_->parent_of(l, n);
      if (!nodes[l + 1][parent].open) {
        trace.status = DeliveryStatus::kLate;
        record.edges.push_back(std::move(trace));
        return;
      }
      decode_node = 1 + tree_->flat_index(l + 1, parent);
    }
    CompressionStats decode_stats;
    ++live[decode_node];
    peak[decode_node] = std::max(peak[decode_node], live[decode_node]);
    StateDict mean = tree_->decode_partial(
        l, {partial->payload.data(), partial->payload.size()}, &decode_stats);
    if (at_root) {
      server_.merge_partial(mean, partial->weight);
      record.aggregate_weight += partial->weight;
    } else {
      tree_->node(l + 1, parent).fold(mean, partial->weight,
                                      partial->clients);
    }
    mean = StateDict();  // merged; free it before anything else arrives
    --live[decode_node];

    trace.decode_seconds = decode_stats.decompress_seconds;
    account_partial(record, std::move(trace));
    if (at_root) {
      ++root_folded;
      maybe_close_root();
    } else {
      ++nodes[l + 1][parent].folded;
      check_node(l + 1, parent);
    }
  };

  // The straggler deadline: every client still in flight is evicted (traced
  // with the marker), and open tier-1 edges force-ship what they have (or
  // withdraw empty-handed) — the cascade then resolves the upper tiers.
  evict_stragglers = [&] {
    const int round = completed;
    for (std::size_t i = 0; i < config_.clients; ++i) {
      if (phase[i] != Phase::kPending) continue;
      phase[i] = Phase::kEvicted;
      trace_flight(i, DeliveryStatus::kEvicted);
    }
    if (!tree_) {
      root_goal = root_folded;
      maybe_close_root();
    } else {
      // Withdrawal cascades can close (and reopen) the round synchronously;
      // the round guard stops the sweep the moment that happens.
      for (std::size_t e = 0; e < edge_count && completed == round; ++e) {
        NodeRound& s = nodes[0][e];
        if (!s.participating || !s.open) continue;
        if (s.folded > 0)
          ship_node(0, e);
        else
          withdraw_node(0, e);
      }
    }
  };

  open_round = [&](bool initial) {
    record = RoundRecord{};
    record.round = completed;
    root_folded = 0;
    server_.begin_round();
    if (scheduler_->continuous() && !initial) {
      // Clients redispatch themselves on arrival; just reset the buffer.
      root_goal = scheduler_->aggregation_goal(config_.clients);
      record.eligible_clients = config_.clients;
      return;
    }
    std::fill(phase.begin(), phase.end(), Phase::kIdle);
    std::fill(dropped.begin(), dropped.end(), 0);
    if (tree_) {
      record.backhaul_tier_bytes.assign(levels, 0);
      record.backhaul_tier_raw_bytes.assign(levels, 0);
      std::fill(node_downlink_bytes.begin(), node_downlink_bytes.end(), 0);
      std::fill(node_downlink_seconds.begin(), node_downlink_seconds.end(),
                0.0);
      for (std::size_t l = 0; l < levels; ++l)
        for (std::size_t n = 0; n < nodes[l].size(); ++n) {
          // A buffered round can close with interior rounds still open;
          // abort leftovers before reopening.
          tree_->node(l, n).abort_round();
          nodes[l][n] = NodeRound{};
        }
      // Static shards first; this round's crashed edges (seeded crash
      // draws, or remote workers that died) then re-shard their clients
      // across the surviving siblings.
      for (std::size_t e = 0; e < edge_count; ++e)
        edge_members[e] = tree_->base_shards()[e];
      std::vector<char> crashed(edge_count, 0);
      if (config_.failures.edge_failure_rate > 0.0) {
        bool any_alive = false;
        for (std::size_t e = 0; e < edge_count; ++e) {
          crashed[e] =
              failure_rng.uniform() < config_.failures.edge_failure_rate;
          any_alive = any_alive || !crashed[e];
        }
        if (!any_alive) crashed[0] = 0;  // at least one edge survives
      }
      if (remote_)
        for (std::size_t e = 0; e < edge_count; ++e)
          crashed[e] = crashed[e] || remote_->crashed(e);
      std::vector<std::size_t> displaced;
      std::vector<std::size_t> alive;
      for (std::size_t e = 0; e < edge_count; ++e) {
        if (crashed[e]) {
          record.crashed_nodes.push_back(tree_->flat_index(0, e));
          displaced.insert(displaced.end(), edge_members[e].begin(),
                           edge_members[e].end());
          edge_members[e].clear();
        } else {
          alive.push_back(e);
        }
      }
      if (alive.empty())
        throw net::TransportError(
            "FlCoordinator: every remote edge died with rounds remaining");
      if (!displaced.empty()) {
        // Seeded shuffle so re-homing is deterministic but uncorrelated
        // with index order, then round-robin over the survivors.
        for (std::size_t k = displaced.size(); k > 1; --k)
          std::swap(displaced[k - 1], displaced[failure_rng.uniform_index(k)]);
        for (std::size_t k = 0; k < displaced.size(); ++k)
          edge_members[alive[k % alive.size()]].push_back(displaced[k]);
      }
      for (std::size_t e = 0; e < edge_count; ++e)
        for (const std::size_t i : edge_members[e]) owner_round[i] = e;
    }
    edge_cohort = draw_round_open(edge_members, config_.clients,
                                  population_.get(), *scheduler_, streams,
                                  queue.now(), tree_ ? 1 : 0, record);
    std::vector<std::size_t> cohort;
    for (const std::vector<std::size_t>& drawn : edge_cohort)
      cohort.insert(cohort.end(), drawn.begin(), drawn.end());
    if (tree_) {
      const auto open_node = [&](std::size_t l, std::size_t n,
                                 std::size_t expected) {
        NodeRound& s = nodes[l][n];
        s.participating = s.open = true;
        s.expected = expected;
        // A remote edge keeps its accumulator in its worker.
        if (!remote_ || l > 0)
          tree_->node(l, n).begin_round(server_.global_state());
      };
      for (std::size_t e = 0; e < edge_count; ++e)
        if (!edge_cohort[e].empty()) open_node(0, e, edge_cohort[e].size());
      // Upper tiers participate when anything below them does; their
      // expectation is the participating child count.
      for (std::size_t l = 1; l < levels; ++l) {
        for (auto& part : children_part[l]) part.clear();
        for (std::size_t c = 0; c < nodes[l - 1].size(); ++c)
          if (nodes[l - 1][c].participating)
            children_part[l][tree_->parent_of(l - 1, c)].push_back(c);
        for (std::size_t n = 0; n < nodes[l].size(); ++n)
          if (!children_part[l][n].empty())
            open_node(l, n, children_part[l][n].size());
      }
      root_goal = 0;
      for (std::size_t n = 0; n < nodes[levels - 1].size(); ++n)
        if (nodes[levels - 1][n].participating) ++root_goal;
    } else {
      root_goal = scheduler_->aggregation_goal(cohort.size());
    }
    if (config_.failures.dropout_rate > 0.0)
      for (const std::size_t i : cohort)
        dropped[i] =
            failure_rng.uniform() < config_.failures.dropout_rate;
    // Population mid-round offline draws ride the eligibility stream (one
    // unconditional draw per cohort member, so the stream advances the same
    // way whatever the outcomes) and surface through the existing dropout
    // machinery.
    if (population_ && population_->config().dropout_rate > 0.0)
      for (const std::size_t i : cohort)
        if (streams.eligibility.uniform() <
            population_->config().dropout_rate)
          dropped[i] = 1;
    if (config_.failures.straggler_deadline_seconds > 0.0)
      queue.schedule_after(config_.failures.straggler_deadline_seconds,
                           [&, round = completed] {
                             if (!stopped && round == completed)
                               evict_stragglers();
                           });
    if (cohort.empty()) {
      // Every draw came back empty: nothing will ever arrive, so close on
      // a zero-delay event (the pump still has to see the round).
      queue.schedule_after(0.0, [&, round = completed] {
        if (!stopped && round == completed) close_round();
      });
      return;
    }
    if (remote_) {
      // A worker that dies instead of reporting loses its cohort: with no
      // compute budget reported, each member drops at the open.
      std::vector<std::optional<EdgeReport>> reports = remote_->run_round(
          completed, queue.now(), edge_cohort, server_.global_state());
      for (std::size_t e = 0; e < edge_count; ++e) {
        std::optional<EdgeReport>& report = reports[e];
        for (std::size_t k = 0; k < edge_cohort[e].size(); ++k) {
          const std::size_t i = edge_cohort[e][k];
          if (!report) {
            dropped[i] = 1;
            compute_seconds_[i] = 0.0;
            continue;
          }
          compute_seconds_[i] = report->updates[k].compute_seconds;
          flights[i].out.delivery = std::move(report->updates[k].delivery);
        }
        if (report)
          remote_partials[e] = std::make_shared<const EncodedPartial>(
              std::move(report->partial));
      }
    }
    // A remote client trains on its edge, so it needs no snapshot here.
    const Snapshot snapshot =
        remote_ ? nullptr
                : std::make_shared<const StateDict>(server_.global_state());
    if (!downlink_) {
      // Free lossless broadcast: clients start on the exact global at once.
      for (const std::size_t i : cohort)
        dispatch(i, completed, snapshot, nullptr);
    } else if (downlink_->mode() == DownlinkMode::kFull) {
      broadcast_to(cohort, completed, snapshot);
    } else {
      for (const std::size_t i : cohort) send_to(i, completed, snapshot);
    }
  };

  // Resume: restore everything a checkpoint captured before the first
  // round opens. The remaining rounds then replay the exact event sequence
  // of an uninterrupted run — same RNG streams mid-sequence, same clock,
  // same tie-break counter — so the finished trajectory is bit-identical.
  if (config_.resume && !config_.checkpoint_path.empty()) {
    if (std::optional<CheckpointState> loaded =
            read_checkpoint(config_.checkpoint_path)) {
      CheckpointState& ck = *loaded;
      if (ck.config_fingerprint != run_fingerprint(config_, model_config_))
        throw InvalidArgument(
            "FlCoordinator: checkpoint at '" + config_.checkpoint_path +
            "' was written by a differently-configured run");
      if (ck.aggregator_name != server_.aggregator().name())
        throw InvalidArgument("FlCoordinator: checkpoint aggregator '" +
                              ck.aggregator_name + "' does not match '" +
                              server_.aggregator().name() + "'");
      if (ck.client_residuals.size() != feedback_.size())
        throw CorruptStream(
            "checkpoint: client residual count does not match the run");
      server_.restore_global_state(std::move(ck.global_state));
      ByteReader aggregator_in(
          {ck.aggregator_state.data(), ck.aggregator_state.size()});
      server_.aggregator().load_state(aggregator_in);
      streams.cohort.restore(ck.cohort_rng);
      failure_rng.restore(ck.failure_rng);
      streams.eligibility.restore(ck.eligibility_rng);
      for (std::size_t i = 0; i < feedback_.size(); ++i)
        feedback_[i].restore_residual(std::move(ck.client_residuals[i]));
      if (downlink_ && downlink_->mode() == DownlinkMode::kDelta)
        downlink_->restore_sessions(std::move(ck.downlink_sessions));
      if (tree_ && config_.topology.edge_error_feedback) {
        if (ck.edge_residuals.size() != interior)
          throw CorruptStream(
              "checkpoint: edge residual count does not match the tree");
        std::size_t flat = 0;
        for (std::size_t l = 0; l < levels; ++l)
          for (std::size_t n = 0; n < tree_->level_size(l); ++n)
            tree_->node(l, n).feedback().restore_residual(
                std::move(ck.edge_residuals[flat++]));
      }
      completed = static_cast<int>(ck.completed_rounds);
      queue.restore_clock(ck.virtual_now, ck.clock_next_seq);
    }
    // No checkpoint on disk yet (killed before the first save): run fresh.
  }

  // A checkpointed campaign that already finished has nothing to replay.
  if (completed < config_.rounds) open_round(true);
  while (!stopped && queue.run_next()) {
  }
  // A buffered ancestor can ship early enough that the run's final close
  // leaves weighted partials mid-transfer; their arrival events never run,
  // so account for them here.
  result.late_events += partials_in_flight;

  result.final_accuracy =
      result.rounds.empty() ? 0.0 : result.rounds.back().accuracy;
  result.peak_decoded_updates = peak[0];
  result.peak_decoded_per_node = std::move(peak);
  result.total_virtual_seconds = queue.now();
  result.total_wall_seconds = wall.seconds();
  return result;
  // ~ThreadPool drains any still-running client tasks (async policies stop
  // mid-flight once the configured number of aggregations completes).
}

}  // namespace fedsz::core
