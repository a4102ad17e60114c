#include "core/fl/coordinator.hpp"

#include <algorithm>
#include <cmath>
#include <future>
#include <memory>
#include <utility>

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
  const TopologyConfig kept = topology;
  CommSettings::operator=(spec.comm);
  topology.backhaul_network = kept.backhaul_network;
  topology.backhaul_heterogeneous = kept.backhaul_heterogeneous;
  topology.shard_seed = kept.shard_seed;
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

// The one place the shard-shuffle seed is resolved (derived from the run
// seed when shuffled sharding leaves it unset), so the tree, the checkpoint
// fingerprint and a distributed run's workers all see one value.
FlRunConfig resolved(FlRunConfig config) {
  config.validate();
  TopologyConfig& t = config.topology;
  if (t.sharding == ShardStrategy::kShuffled && t.shard_seed == 0)
    t.shard_seed = config.seed ^ 0x5A4DD00Dull;
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
      config_(resolved(std::move(config))),
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
    tree_ = std::make_unique<AggregationTree>(config_.topology,
                                             config_.clients);
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

// The event pump of one run(): the run's state as members, one member
// function per round stage, and events that capture `this` plus ids. The
// aggregation points sit at levels 0..`levels`: tier-1 edges at level 0 up
// to the top tier, then the root alone (level 0 on a flat run, where
// clients fold straight into it).
struct FlCoordinator::Pump {
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
  // down the tree.
  struct BroadcastReady {
    Bytes payload;
    CompressionStats stats;
    std::shared_ptr<const StateDict> model;  // the shared reconstruction
    double decode_seconds = 0.0;
  };
  // Per-client lifecycle. Every scheduled client event carries the
  // generation it was dispatched under; eviction or redispatch bumps it, so
  // stale upload/arrival events for a superseded dispatch become no-ops.
  enum class Phase : std::uint8_t { kIdle, kPending, kDone, kDropped,
                                    kEvicted };
  // One aggregation point's round. `open` is set at the round's open when
  // the node has a child, and cleared when it ships or withdraws.
  // `expected` counts the children still promised — it shrinks when a
  // child drops, is evicted or withdraws, while `folded` only grows.
  struct NodeRound {
    bool open = false;
    std::size_t expected = 0;
    std::size_t folded = 0;
  };
  using Snapshot = std::shared_ptr<const StateDict>;
  using PayloadPtr = std::shared_ptr<const Bytes>;

  explicit Pump(FlCoordinator& coordinator)
      : fl(coordinator),
        flights(config_.clients),
        phase(config_.clients, Phase::kIdle),
        generation(config_.clients, 0),
        dropped(config_.clients, 0),
        owner_round(config_.clients, 0),
        live(1 + interior, 0),
        peak(1 + interior, 0),
        edge_members(edge_count),
        node_downlink_bytes(interior, 0),
        node_downlink_seconds(interior, 0.0),
        remote_partials(remote_ ? edge_count : 0),
        pool(std::max<std::size_t>(1, config_.threads)) {
    result.scheduler = scheduler_->name();
    nodes.resize(levels + 1);
    children.resize(levels + 1);
    for (std::size_t l = 0; l <= levels; ++l) {
      const std::size_t size = l < levels ? tree_->level_size(l) : 1;
      nodes[l].resize(size);
      children[l].resize(size);
    }
    if (!tree_)  // a flat run is one edge holding everyone
      for (std::size_t i = 0; i < config_.clients; ++i)
        edge_members[0].push_back(i);
  }
  // Events and pool tasks hold `this`.
  Pump(const Pump&) = delete;
  Pump& operator=(const Pump&) = delete;

  FlCoordinator& fl;
  // The coordinator's long-lived parts, under the coordinator's names.
  const nn::ModelConfig& model_config_ = fl.model_config_;
  const data::DatasetPtr& test_ = fl.test_;
  const FlRunConfig& config_ = fl.config_;
  const UpdateCodecPtr& codec_ = fl.codec_;
  const SchedulerPtr& scheduler_ = fl.scheduler_;
  FlServer& server_ = fl.server_;
  const std::unique_ptr<ClientPopulation>& population_ = fl.population_;
  const net::HeterogeneousNetwork& network_ = fl.network_;
  const std::vector<std::unique_ptr<FlClient>>& clients_ = fl.clients_;
  std::vector<double>& compute_seconds_ = fl.compute_seconds_;
  const std::unique_ptr<DownlinkChannel>& downlink_ = fl.downlink_;
  const std::unique_ptr<AggregationTree>& tree_ = fl.tree_;
  std::vector<ErrorFeedbackAccumulator>& feedback_ = fl.feedback_;
  RemoteEdges* const remote_ = fl.remote_;

  const std::size_t levels = tree_ ? tree_->levels() : 0;  // the root's level
  const std::size_t interior = tree_ ? tree_->interior_nodes() : 0;
  const std::size_t edge_count = tree_ ? tree_->edge_count() : 1;

  Timer wall;
  FlRunResult result;
  net::EventQueue queue;
  std::vector<InFlight> flights;
  RoundStreams streams{config_.seed};
  // Churn draws ride their own stream: a failure-free run consumes exactly
  // the randomness it did before churn existed, keeping trajectory pins.
  Rng failure_rng{config_.seed ^ 0xFA17A1E5ull};
  int completed = 0;  // aggregations finished so far
  bool stopped = false;
  RoundRecord record;
  std::vector<Phase> phase;
  std::vector<std::uint64_t> generation;
  std::vector<char> dropped;  // this round's dropout draws
  // Tier-1 edge owning each client THIS round (crash re-sharding moves it).
  std::vector<std::size_t> owner_round;
  // Shipped partials whose arrival event has not executed yet. Whatever is
  // still in flight when the run stops never merges anywhere — fold those
  // into late_events at exit so weight that left an edge is always either
  // merged, traced kLate, or counted late.
  std::size_t partials_in_flight = 0;

  // Decoded payloads alive per aggregation point, by node_id (streaming
  // keeps every live count at <= 1), and their peaks.
  std::vector<std::size_t> live;
  std::vector<std::size_t> peak;

  // Round state per node, levels 0..levels (the root last).
  std::vector<std::vector<NodeRound>> nodes;
  // This round's member set per tier-1 edge, after crash re-sharding.
  std::vector<std::vector<std::size_t>> edge_members;
  // Each node's children this round, in dispatch order: the drawn cohort
  // (client ids) at level 0, the level l-1 nodes that opened above.
  std::vector<std::vector<std::vector<std::size_t>>> children;
  // Broadcast traffic charged to each interior node's link this round.
  std::vector<std::size_t> node_downlink_bytes;
  std::vector<double> node_downlink_seconds;
  // This round's partial from each remote tier-1 edge, shipped when the
  // pump has delivered the edge's last update.
  std::vector<std::shared_ptr<const EncodedPartial>> remote_partials;

  // Last, so its destructor drains in-flight tasks before the state above.
  ThreadPool pool;

  // The level-(l+1) index of node (l, n)'s parent; the root tops the tree.
  std::size_t parent(std::size_t l, std::size_t n) const {
    return l + 1 == levels ? 0 : tree_->parent_of(l, n);
  }
  // Node (l, n)'s id in traces and peaks: 0 = the root, 1 + flat_index.
  std::size_t node_id(std::size_t l, std::size_t n) const {
    return l == levels ? 0 : 1 + tree_->flat_index(l, n);
  }

  FlRunResult run() {
    if (config_.resume && !config_.checkpoint_path.empty()) resume();
    // A checkpointed campaign that already finished has nothing to replay.
    if (completed < config_.rounds) open_round(true);
    while (!stopped && queue.run_next()) {
    }
    // A buffered ancestor can ship early enough that the run's final close
    // leaves weighted partials mid-transfer; their arrival events never
    // run, so account for them here.
    result.late_events += partials_in_flight;

    result.final_accuracy =
        result.rounds.empty() ? 0.0 : result.rounds.back().accuracy;
    result.peak_decoded_updates = peak[0];
    result.peak_decoded_per_node = std::move(peak);
    result.total_virtual_seconds = queue.now();
    result.total_wall_seconds = wall.seconds();
    return std::move(result);
  }

  // ---- checkpoint ----

  // Snapshot everything that evolves across rounds. Only called between
  // rounds (from close_round, before the next open), where the barrier
  // restrictions enforced in the constructor guarantee an empty queue —
  // the virtual clock pair (now, next_seq) then fully determines resumed
  // event ordering.
  void save_checkpoint() {
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
  }

  // Restore everything a checkpoint captured before the first round opens.
  // The remaining rounds then replay the exact event sequence of an
  // uninterrupted run — same RNG streams mid-sequence, same clock, same
  // tie-break counter — so the finished trajectory is bit-identical.
  void resume() {
    std::optional<CheckpointState> loaded =
        read_checkpoint(config_.checkpoint_path);
    // No checkpoint on disk yet (killed before the first save): run fresh.
    if (!loaded) return;
    CheckpointState& ck = *loaded;
    if (ck.config_fingerprint != run_fingerprint(config_, model_config_))
      throw InvalidArgument("FlCoordinator: checkpoint at '" +
                            config_.checkpoint_path +
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

  // ---- open ----

  void open_round(bool initial) {
    record = RoundRecord{};
    record.round = completed;
    server_.begin_round();
    if (scheduler_->continuous() && !initial) {
      // Clients redispatch themselves on arrival; just reset the buffer.
      NodeRound& root = nodes[levels][0];
      root.expected = scheduler_->aggregation_goal(config_.clients);
      root.folded = 0;
      record.eligible_clients = config_.clients;
      return;
    }
    std::fill(phase.begin(), phase.end(), Phase::kIdle);
    std::fill(dropped.begin(), dropped.end(), 0);
    for (std::size_t l = 0; l <= levels; ++l)
      for (std::size_t n = 0; n < nodes[l].size(); ++n) {
        // A buffered round can close with interior rounds still open;
        // abort leftovers before reopening.
        if (l < levels) tree_->node(l, n).abort_round();
        nodes[l][n] = NodeRound{};
      }
    record.backhaul_tier_bytes.assign(levels, 0);
    record.backhaul_tier_raw_bytes.assign(levels, 0);
    std::fill(node_downlink_bytes.begin(), node_downlink_bytes.end(), 0);
    std::fill(node_downlink_seconds.begin(), node_downlink_seconds.end(), 0.0);
    if (tree_) rehome();
    children[0] = draw_round_open(edge_members, config_.clients,
                                  population_.get(), *scheduler_, streams,
                                  queue.now(), tree_ ? 1 : 0, record);
    std::vector<std::size_t> cohort;
    for (const std::vector<std::size_t>& drawn : children[0])
      cohort.insert(cohort.end(), drawn.begin(), drawn.end());
    // Open bottom-up: a node opens when anything below it does. The nodes
    // clients fold into expect the scheduler's goal over their cohort;
    // every node above expects its open children.
    for (std::size_t l = 0; l <= levels; ++l) {
      if (l > 0) {
        for (std::vector<std::size_t>& part : children[l]) part.clear();
        for (std::size_t c = 0; c < nodes[l - 1].size(); ++c)
          if (nodes[l - 1][c].open)
            children[l][parent(l - 1, c)].push_back(c);
      }
      for (std::size_t n = 0; n < nodes[l].size(); ++n) {
        if (children[l][n].empty()) continue;
        NodeRound& s = nodes[l][n];
        s.open = true;
        const std::size_t count = children[l][n].size();
        s.expected = l > 0 ? count : scheduler_->aggregation_goal(count);
        // The root folds into the server; a remote edge keeps its
        // accumulator in its worker.
        if (l < levels && (!remote_ || l > 0))
          tree_->node(l, n).begin_round(server_.global_state());
      }
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
                           [this, round = completed] {
                             if (!stopped && round == completed)
                               evict_stragglers();
                           });
    if (cohort.empty()) {
      // Every draw came back empty: nothing will ever arrive, so close on
      // a zero-delay event (the pump still has to see the round).
      queue.schedule_after(0.0, [this, round = completed] {
        if (!stopped && round == completed) close_round();
      });
      return;
    }
    dispatch_cohort(cohort);
  }

  // Static shards first; this round's crashed edges (seeded crash draws,
  // or remote workers that died) then re-shard their clients across the
  // surviving siblings.
  void rehome() {
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

  // ---- dispatch ----

  // Start the drawn cohort on this round's global: straight away over a
  // free broadcast, else through the downlink.
  void dispatch_cohort(const std::vector<std::size_t>& cohort) {
    if (remote_) {
      // A worker that dies instead of reporting loses its cohort: with no
      // compute budget reported, each member drops at the open.
      std::vector<std::optional<EdgeReport>> reports = remote_->run_round(
          completed, queue.now(), children[0], server_.global_state());
      for (std::size_t e = 0; e < edge_count; ++e) {
        std::optional<EdgeReport>& report = reports[e];
        for (std::size_t k = 0; k < children[0][e].size(); ++k) {
          const std::size_t i = children[0][e][k];
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
      broadcast_full(completed, snapshot);
    } else {
      for (const std::size_t i : cohort) send_to(i, completed, snapshot);
    }
  }

  // The client's real work, run on the pool: decode the broadcast payload
  // when one was delivered (per-client path), then train and encode on the
  // resulting model. Per-client state (feedback_[i], downlink session i) is
  // safe without locks because a client never has two tasks alive at once
  // (dispatch waits out a stale evicted task before reusing the slot).
  WorkerOut client_work(std::size_t i, int round, const Snapshot& model,
                        const PayloadPtr& broadcast) {
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
  }

  // Start a client's real work on the pool and its virtual compute timer.
  // `model` is the state it trains on (the global snapshot, or the shared
  // kFull broadcast reconstruction); `broadcast` (per-client downlink path)
  // makes the worker decode its own payload first. A client drawn as a
  // dropout this round never reaches the pool: it "trains" for half its
  // compute budget and vanishes. A remote client already trained on its
  // edge; only its virtual compute timer runs here.
  void dispatch(std::size_t i, int round, Snapshot model,
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
                           [this, i, gen] { on_drop(i, gen); });
      return;
    }
    if (!remote_)
      flight.future = pool.submit([this, i, round, model, broadcast] {
        return client_work(i, round, model, broadcast);
      });
    queue.schedule_after(compute_seconds_[i],
                         [this, i, gen] { on_upload(i, gen); });
  }

  // Per-client downlink: encode this client's broadcast on the pool (the
  // whole global, or its session delta in kDelta mode), then charge the
  // payload against every hop on its path — each ancestor node's own link
  // top-down under a hierarchical topology — before the client's own link
  // and compute may start.
  void send_to(std::size_t i, int round, Snapshot snapshot) {
    const bool delta = downlink_->mode() == DownlinkMode::kDelta;
    auto pending = std::make_shared<std::future<BroadcastPayload>>(
        pool.submit([this, delta, i, round, snapshot] {
          return delta ? downlink_->encode_for_client(i, *snapshot, round)
                       : downlink_->encode_broadcast(*snapshot, round);
        }));
    queue.schedule_after(0.0, [this, i, round, pending] {
      send_payload(i, round, pending->get());
    });
  }

  void send_payload(std::size_t i, int round, BroadcastPayload broadcast) {
    InFlight& flight = flights[i];
    auto payload = std::make_shared<const Bytes>(std::move(broadcast.payload));
    flight.downlink.bytes = payload->size();
    flight.downlink.raw_bytes = broadcast.stats.original_bytes;
    flight.downlink.encode_seconds = broadcast.stats.compress_seconds;
    flight.downlink.decode_seconds = 0.0;
    flight.downlink.seconds =
        network_.link(i).transfer_seconds(payload->size());
    // The client's ancestor chain, bottom-up: path[l] is the node at level
    // l the payload crosses on its way down (none on a flat run).
    auto path = std::make_shared<std::vector<std::size_t>>();
    for (std::size_t l = 0; l < levels; ++l)
      path->push_back(l == 0 ? owner_round[i] : parent(l - 1, path->back()));
    send_hop(0, i, round, path, payload);
  }

  // Charge one broadcast crossing of node (l, n)'s link; returns its
  // virtual seconds.
  double charge_hop(std::size_t l, std::size_t n, std::size_t bytes) {
    const std::size_t flat = tree_->flat_index(l, n);
    const double hop = tree_->uplink(l, n).transfer_seconds(bytes);
    node_downlink_bytes[flat] += bytes;
    node_downlink_seconds[flat] += hop;
    record.backhaul_downlink_bytes += bytes;
    record.backhaul_downlink_seconds += hop;
    return hop;
  }

  // Hop `k` (0 = topmost: root -> top-tier node) of a per-client downlink
  // path; after the last interior hop comes the client's own link.
  void send_hop(std::size_t k, std::size_t i, int round,
                std::shared_ptr<const std::vector<std::size_t>> path,
                PayloadPtr payload) {
    if (k == levels) {
      queue.schedule_after(flights[i].downlink.seconds,
                           [this, i, round, payload] {
                             dispatch(i, round, nullptr, payload);
                           });
      return;
    }
    const std::size_t l = levels - 1 - k;
    const double hop = charge_hop(l, (*path)[l], payload->size());
    queue.schedule_after(hop, [this, k, i, round, path, payload] {
      send_hop(k + 1, i, round, path, payload);
    });
  }

  // kFull cohort broadcast: encode the global ONCE on the pool (overlapped
  // with the event pump), decode it once — every client reconstructs the
  // same model — and fan the same payload out from the root.
  void broadcast_full(int round, Snapshot snapshot) {
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
    queue.schedule_after(0.0, [this, round, pending] {
      fan_out(levels, 0, round,
              std::make_shared<const BroadcastReady>(pending->get()));
    });
  }

  // Hand the broadcast to node (l, n)'s children this round: its own
  // clients at level 0, one subtree per child above.
  void fan_out(std::size_t l, std::size_t n, int round,
               std::shared_ptr<const BroadcastReady> ready) {
    for (const std::size_t c : children[l][n]) {
      if (l == 0)
        deliver_client(c, round, ready);
      else
        deliver_subtree(l - 1, c, round, ready);
    }
  }

  // ONE copy of the broadcast crosses node (l, n)'s link, then fans out
  // below it.
  void deliver_subtree(std::size_t l, std::size_t n, int round,
                       std::shared_ptr<const BroadcastReady> ready) {
    const double hop = charge_hop(l, n, ready->payload.size());
    queue.schedule_after(hop, [this, l, n, round, ready] {
      fan_out(l, n, round, ready);
    });
  }

  // The last downlink leg: charge the shared broadcast payload against the
  // client's own link, then dispatch on the shared reconstruction.
  void deliver_client(std::size_t i, int round,
                      std::shared_ptr<const BroadcastReady> ready) {
    InFlight& flight = flights[i];
    flight.downlink.bytes = ready->payload.size();
    flight.downlink.raw_bytes = ready->stats.original_bytes;
    flight.downlink.encode_seconds = ready->stats.compress_seconds;
    flight.downlink.decode_seconds = ready->decode_seconds;
    flight.downlink.seconds =
        network_.link(i).transfer_seconds(ready->payload.size());
    queue.schedule_after(flight.downlink.seconds,
                         [this, i, round, model = ready->model] {
                           dispatch(i, round, model, nullptr);
                         });
  }

  // ---- upload ----

  // Whether a client event still belongs to a live dispatch. A stale
  // generation or a non-pending phase means this dispatch was superseded
  // (evicted, or its round closed under it); kIdle specifically means the
  // round already closed — count it, the record is immutable.
  bool live_dispatch(std::size_t i, std::uint64_t gen) {
    if (stopped || gen != generation[i]) return false;
    if (phase[i] == Phase::kIdle) ++result.late_events;
    return phase[i] == Phase::kPending;
  }

  // Virtual compute done: collect the encoded update (waiting for the real
  // work if it is still running) and put it on this client's link.
  void on_upload(std::size_t i, std::uint64_t gen) {
    if (!live_dispatch(i, gen)) return;
    InFlight& flight = flights[i];
    if (!remote_) flight.out = flight.future.get();
    flight.transfer_seconds =
        network_.link(i).transfer_seconds(flight.out.delivery.payload_bytes);
    queue.schedule_after(flight.transfer_seconds,
                         [this, i, gen] { on_arrival(i, gen); });
  }

  // Trace a dispatched client that will deliver nothing (weight 0), at
  // the moment it went silent or the server gave up on it.
  void trace_flight(std::size_t i, DeliveryStatus status) {
    const InFlight& f = flights[i];
    trace_undelivered(record, i, node_id(0, owner_round[i]), status,
                      f.dispatch_round, f.dispatch_seconds, queue.now(),
                      population_.get(), f.downlink);
  }

  // A client drawn as a dropout vanished mid-round: trace it and release
  // its aggregation point from waiting on it.
  void on_drop(std::size_t i, std::uint64_t gen) {
    if (stopped || gen != generation[i] || phase[i] != Phase::kPending) return;
    phase[i] = Phase::kDropped;
    trace_flight(i, DeliveryStatus::kDropped);
    lost_child(0, owner_round[i]);
  }

  // The straggler deadline: every client still in flight is evicted
  // (traced with the marker), and every open node clients fold into is
  // forced: expecting no more than it has, an edge ships (or withdraws
  // empty-handed) and the root closes the round.
  void evict_stragglers() {
    const int round = completed;
    for (std::size_t i = 0; i < config_.clients; ++i) {
      if (phase[i] != Phase::kPending) continue;
      phase[i] = Phase::kEvicted;
      trace_flight(i, DeliveryStatus::kEvicted);
    }
    // Cascades can close (and reopen) the round synchronously; the round
    // guard stops the sweep the moment that happens.
    for (std::size_t n = 0; n < nodes[0].size() && completed == round; ++n) {
      NodeRound& s = nodes[0][n];
      if (!s.open) continue;
      s.expected = s.folded;
      check(0, n);
    }
  }

  // ---- arrive / fold ----

  // An update reached the node it folds into — the root (flat) or the
  // owning edge (hier): decode it, fold it, score the Eqn (1) decision
  // against this client's own link, and let the node close out once its
  // goal is met. A remote edge decoded and folded the update itself; only
  // the accounting runs.
  void on_arrival(std::size_t i, std::uint64_t gen) {
    if (!live_dispatch(i, gen)) return;
    phase[i] = Phase::kDone;
    InFlight& flight = flights[i];
    WorkerOut out = std::exchange(flight.out, {});
    const std::size_t e = owner_round[i];  // 0 on a flat run: the root

    ClientDelivery delivery = std::move(out.delivery);
    delivery.node = node_id(0, e);
    delivery.dispatch_round = flight.dispatch_round;
    delivery.dispatch_seconds = flight.dispatch_seconds;
    delivery.arrival_seconds = queue.now();
    delivery.transfer_seconds = flight.transfer_seconds;
    delivery.downlink = flight.downlink;
    delivery.downlink.decode_seconds += out.downlink_decode_seconds;

    if (!nodes[0][e].open) {
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
      peak[delivery.node] = std::max<std::size_t>(peak[delivery.node], 1);
    } else {
      CompressionStats decode_stats;
      fold_into(0, e,
                codec_->decode({out.payload.data(), out.payload.size()},
                               &decode_stats),
                delivery.weight, 1);
      delivery.decode_seconds = decode_stats.decompress_seconds;
    }
    account_delivery(record, delivery, population_.get(), network_.link(i));
    folded_child(0, e);

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
  }

  // Fold one decoded payload carrying `leaves` leaf updates into node
  // (l, n), then free it, so each node holds at most one decoded payload
  // at a time. The one place the fold target differs: the root folds into
  // the server (client updates when flat, partials from the top tier when
  // hier), every other node into its edge accumulator.
  void fold_into(std::size_t l, std::size_t n, StateDict payload,
                 double weight, std::size_t leaves) {
    const std::size_t id = node_id(l, n);
    ++live[id];
    peak[id] = std::max(peak[id], live[id]);
    if (l < levels)
      tree_->node(l, n).fold(payload, weight, leaves);
    else if (l > 0)  // a tree's root: a top-tier partial
      server_.merge_partial(payload, weight);
    else  // a flat run's root: a client update
      server_.accumulate(payload, weight);
    if (l == levels) record.aggregate_weight += weight;
    payload = StateDict();
    --live[id];
  }

  // ---- close: one path for every node, the root included ----

  void folded_child(std::size_t l, std::size_t n) {
    ++nodes[l][n].folded;
    check(l, n);
  }

  // A child dropped, was evicted or withdrew: one fewer to wait for.
  void lost_child(std::size_t l, std::size_t n) {
    NodeRound& s = nodes[l][n];
    if (s.expected > 0) --s.expected;
    check(l, n);
  }

  // The root closes the round once every still-promised child folded
  // (0 >= 0 closes a round that lost them all). An interior node ships
  // once every still-promised child delivered (buffered: after
  // min(K, expected) folds); one whose whole expectation churned away
  // withdraws, which cascades one level up.
  void check(std::size_t l, std::size_t n) {
    const NodeRound& s = nodes[l][n];
    if (stopped || !s.open) return;
    if (l == levels) {
      if (s.folded >= s.expected) close_round();
      return;
    }
    if (s.folded == 0) {
      if (s.expected == 0) withdraw(l, n);
      return;
    }
    std::size_t target = s.expected;
    if (config_.topology.edge_mode == EdgeMode::kBuffered)
      target = std::min(config_.topology.edge_buffer, target);
    if (s.folded >= target) ship(l, n);
  }

  // ---- ship ----

  void ship(std::size_t l, std::size_t n) {
    nodes[l][n].open = false;
    auto partial = remote_ && l == 0
                       ? std::move(remote_partials[n])
                       : std::make_shared<const EncodedPartial>(
                             tree_->node(l, n).finalize_and_encode(completed));
    ++partials_in_flight;
    const double transfer =
        tree_->uplink(l, n).transfer_seconds(partial->payload.size());
    queue.schedule_after(transfer,
                         [this, l, n, round = completed, transfer, partial] {
                           on_partial(l, n, round, transfer, partial);
                         });
  }

  void withdraw(std::size_t l, std::size_t n) {
    nodes[l][n].open = false;
    tree_->node(l, n).abort_round();
    lost_child(l + 1, parent(l, n));
  }

  // ---- merge ----

  // A node's re-encoded partial crossed its uplink: merge it into its
  // parent — an interior node or the root. Partials for a closed round or
  // a parent that already shipped merge nowhere (counted/traced, never
  // totaled).
  void on_partial(std::size_t l, std::size_t n, int round, double transfer,
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
    const std::size_t p = parent(l, n);
    if (!nodes[l + 1][p].open) {
      trace.status = DeliveryStatus::kLate;
      record.edges.push_back(std::move(trace));
      return;
    }
    CompressionStats decode_stats;
    fold_into(l + 1, p,
              tree_->decode_partial(
                  l, {partial->payload.data(), partial->payload.size()},
                  &decode_stats),
              partial->weight, partial->clients);
    trace.decode_seconds = decode_stats.decompress_seconds;
    account_partial(record, std::move(trace));
    folded_child(l + 1, p);
  }

  void close_round() {
    finish_round(record, server_, queue.now(), config_, *test_, &pool);
    result.rounds.push_back(std::move(record));
    ++completed;
    if (!config_.checkpoint_path.empty() &&
        static_cast<std::size_t>(completed) % config_.checkpoint_every == 0)
      save_checkpoint();
    if (completed >= config_.rounds)
      stopped = true;
    else
      open_round(false);
  }
};

FlRunResult FlCoordinator::run() {
  Pump pump(*this);
  return pump.run();
}

}  // namespace fedsz::core
