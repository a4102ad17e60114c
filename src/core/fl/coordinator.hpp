// FL coordinator: the event-driven federation runtime. Partitions a
// training set across clients and pumps a virtual-clock event queue instead
// of iterating rounds: dispatching a client submits its real work (local
// SGD + update encoding) to a thread pool, while deterministic *virtual*
// durations — a compute model plus the client's own simulated link — decide
// when the update "arrives" at the server. Arrivals are decoded one at a
// time and folded straight into the streaming aggregator, so peak
// decoded-update memory is O(1) in the client count, and each arrival is
// scored against Eqn (1) on that client's link (the per-client
// CompressionDecision trace behind Figures 7-9).
//
// Participation is a Scheduler policy: the default SyncScheduler reproduces
// the classic full-participation FedAvg barrier (and, over a homogeneous
// network, the exact pre-event-runtime trajectory); SampledSyncScheduler
// and BufferedAsyncScheduler open the client-sampling and FedBuff-style
// asynchronous regimes. Event order depends only on seeds and virtual
// durations — never on host load — so every run is reproducible.
//
// Topology is orthogonal (core/fl/topology.hpp): under TopologyMode::kHier
// client arrivals fold at their EDGE aggregator instead of the root; once
// an edge's cohort goal is met it finalizes a weight-carrying partial mean,
// re-encodes it through its backhaul codec spec, and a new edge-arrival
// event delivers it over the edge's own backhaul link. Downlink broadcasts
// fan out the other way (root->edge->client), charged per hop. A
// distributed run's root is this same pump with every tier-1 edge in a
// worker process (RemoteEdges, core/fl/federation.hpp).
//
// Each run() builds one pump object: the run's state plus one member
// function per round stage. The root is an aggregation node one level above
// the top tier (on a flat run, the only one); it closes the round through
// the same folded-/lost-child steps that make an edge ship or withdraw.
#pragma once

#include <optional>

#include "core/error_feedback.hpp"
#include "core/fl/client.hpp"
#include "core/fl/downlink.hpp"
#include "core/fl/population.hpp"
#include "core/fl/scheduler.hpp"
#include "core/fl/server.hpp"
#include "core/fl/topology.hpp"
#include "core/update_codec.hpp"
#include "data/partition.hpp"
#include "net/heterogeneous.hpp"

namespace fedsz::core {

struct CodecSpec;
class RemoteEdges;

/// Seeded churn injection, applied as coordinator pump events. Every draw
/// comes from its own RNG stream, derived from the run seed, so a
/// failure-free run consumes exactly the randomness it did before churn
/// existed and the trajectory pins stay byte-exact.
struct FailureSchedule {
  /// Per-dispatch probability a client fails mid-round: it trains for half
  /// its compute budget, then vanishes without uploading. Its weight never
  /// reaches the aggregate; the trace records the dropout.
  double dropout_rate = 0.0;
  /// Per-round probability a tier-1 edge crashes before the round opens.
  /// Its cohort is re-sharded (seeded shuffle, round-robin) across the
  /// surviving sibling edges; at least one edge always survives.
  double edge_failure_rate = 0.0;
  /// Virtual-time budget per round: clients still in flight this many
  /// seconds after the round opened are evicted (traced with an eviction
  /// marker) and open interior nodes force-ship what they have. 0 = no
  /// deadline.
  double straggler_deadline_seconds = 0.0;

  bool empty() const {
    return dropout_rate == 0.0 && edge_failure_rate == 0.0 &&
           straggler_deadline_seconds == 0.0;
  }
  /// Throws InvalidArgument on rates outside [0, 1] or a negative/non-
  /// finite deadline.
  void validate() const;
};

struct FlRunConfig {
  std::size_t clients = 4;
  int rounds = 10;
  ClientConfig client;
  net::NetworkProfile network{10.0, 0.0};  // the paper's 10 Mbps edge link
  /// When set, draws one link per client instead of sharing `network`.
  std::optional<net::HeterogeneousNetworkConfig> heterogeneous;
  std::size_t eval_limit = 512;            // test samples per evaluation
  std::size_t threads = 4;
  std::uint64_t seed = 42;
  bool evaluate_every_round = true;
  /// Virtual-clock compute model: simulated client training time is
  /// seconds_per_sample * samples * local_epochs * a per-client speed
  /// factor drawn from [1 - jitter, 1 + jitter]. Deterministic by seed, so
  /// event order never depends on host load.
  double compute_seconds_per_sample = 1e-3;
  double compute_jitter = 0.0;  // in [0, 1)

  /// Codec spec for the server->client global-model broadcast (e.g.
  /// "fedsz:eb=rel:1e-3" or "identity"). Empty keeps the pre-downlink
  /// model: the broadcast is lossless and costs nothing on the virtual
  /// clock. When set, broadcast bytes are charged against each client's
  /// own link BEFORE its local training starts, and clients train on the
  /// decoded (possibly lossy) model.
  std::string downlink_spec;
  /// kFull encodes the whole global once per round; kDelta encodes each
  /// client's delta against the model it last acknowledged.
  DownlinkMode downlink_mode = DownlinkMode::kFull;
  /// Per-client uplink error feedback: the residual the lossy encoder
  /// dropped is folded into the next round's update before encoding.
  bool error_feedback = false;

  /// Aggregation topology: the default flat star, or a hierarchical tree
  /// (TopologyMode::kHier) sharding clients under edge aggregators that
  /// re-encode weight-carrying partial means over their own backhaul
  /// links. Hierarchical runs require a barrier scheduler (sync /
  /// sampled_sync), applied per edge cohort.
  TopologyConfig topology;

  /// Seeded churn: client dropout, edge crashes with re-sharding, and
  /// straggler eviction. Empty (the default) injects nothing. Requires a
  /// barrier scheduler; edge_failure_rate further requires kHier.
  FailureSchedule failures;

  /// Wire transport for hierarchical edges (transport= comm key), in the
  /// spec's canonical spelling: empty = in-process simulation; "tcp:<port>"
  /// = each edge cohort is its own process over TCP (port 0 picks a free
  /// one). Consumed by the federation driver (core/fl/federation.hpp), not
  /// by FlCoordinator::run() itself.
  std::string transport;

  /// Checkpoint/resume (checkpoint=<path>:<K> comm key): with a non-empty
  /// path the coordinator atomically rewrites `checkpoint_path` every
  /// `checkpoint_every` completed rounds, and — when `resume` is set — first
  /// restores the state found there, so the finished run is bit-identical
  /// to one that never stopped.
  std::string checkpoint_path;
  std::size_t checkpoint_every = 0;
  bool resume = false;

  /// Client data sharding (data= comm key): 0 = IID deal (the default and
  /// the byte-stable pre-existing trajectory), > 0 = Dirichlet label-skew
  /// partition with this concentration alpha (lower = more skew), seeded
  /// from `seed` so the shards are deterministic.
  double dirichlet_alpha = 0.0;
  /// Power-law per-client sample-count skew (data=sizeskew:<s> comm key):
  /// 0 = off; > 0 applies apply_sizeskew after the base partition, from its
  /// own stream (seed ^ 0x517E55EDull) so the base shards are unchanged.
  double sizeskew_s = 0.0;

  /// Client population (population= comm key): device classes with
  /// correlated compute/link/data-size draws plus an availability model
  /// sampled on the virtual clock at each round open — only eligible
  /// clients enter the scheduler's cohort draw (per edge cohort under
  /// kHier). Empty (the default) keeps the flat always-available pool and
  /// consumes no extra randomness. Requires a barrier scheduler; mutually
  /// exclusive with `heterogeneous` (the population owns the link draws).
  PopulationConfig population;

  /// Fold the comm-level keys of a parsed codec spec (downlink=, downmode=,
  /// ef=, topology=, backhaul=, backhaul<k>=, edgemode=, edgeef=, shard=,
  /// transport=, checkpoint=) into this config; the spec's codec-level keys
  /// are unaffected.
  void apply_comm_spec(const CodecSpec& spec);

  /// Throws InvalidArgument on degenerate settings (zero clients/rounds/
  /// threads, bad jitter, empty evaluation, malformed downlink spec,
  /// degenerate topology).
  void validate() const;
};

/// What happened to one dispatched update (or shipped partial).
enum class DeliveryStatus : std::uint8_t {
  kAggregated = 0,  // decoded and folded into its aggregation point
  kDropped = 1,     // client failed mid-round; nothing uploaded
  kEvicted = 2,     // still in flight at the straggler deadline
  kLate = 3,        // arrived after its (buffered) parent already shipped
  kIneligible = 4,  // unavailable at round open; never dispatched
};

std::string delivery_status_name(DeliveryStatus status);

/// One update delivery: who sent it, when (virtual clock), over which link,
/// what the compression policy decided for it, and whether compressing for
/// that link was worthwhile (Eqn 1).
struct ClientTraceEntry {
  std::size_t client = 0;
  int dispatch_round = 0;         // server round when the client was sent
  double dispatch_seconds = 0.0;  // virtual time of dispatch
  double arrival_seconds = 0.0;   // virtual time the update was folded
  double transfer_seconds = 0.0;  // over this client's own link
  double weight = 0.0;            // samples x staleness scale
  std::size_t payload_bytes = 0;
  std::size_t raw_bytes = 0;
  /// Policy decisions for this update: mean requested relative bound over
  /// lossy-path tensors (round-/magnitude-aware policies vary it per
  /// dispatch) and the per-path tensor tallies.
  double bound_value = 0.0;
  std::size_t lossy_tensors = 0;
  std::size_t lossless_tensors = 0;
  std::size_t raw_tensors = 0;
  std::size_t sparse_tensors = 0;
  /// Downlink leg of this delivery: broadcast bytes charged against this
  /// client's link and the virtual seconds they took (0 when the broadcast
  /// is free/lossless).
  std::size_t downlink_bytes = 0;
  double downlink_seconds = 0.0;
  /// L2 norm of this client's carried error-feedback residual after this
  /// update was encoded (0 with EF off or a lossless codec).
  double ef_residual_norm = 0.0;
  /// Aggregation point that folded this update: 0 = the root (flat runs),
  /// 1 + AggregationTree::flat_index(0, e) for tier-1 edge e under a
  /// hierarchical topology (matching FlRunResult::peak_decoded_per_node
  /// indexing).
  std::size_t node = 0;
  /// Churn outcome: only kAggregated entries contributed to the round's
  /// aggregate (and to the per-round byte/second totals); dropped, evicted
  /// and late entries carry weight 0.
  DeliveryStatus status = DeliveryStatus::kAggregated;
  /// Population segment this client belongs to ("" when no population= key
  /// is active) — lets figures be re-plotted offline per device class.
  std::string device_class;
  /// False only for kIneligible entries (the client was unavailable at
  /// round open and never dispatched).
  bool eligible = true;
  net::CompressionDecision decision;  // Eqn (1) against this client's link
};

/// One interior partial delivery (hierarchical topologies): how many leaf
/// updates the partial folded and the weight it carries, the uplink leg of
/// the re-encoded partial, and the downstream share of the downlink
/// broadcast charged to the shipping node's link.
struct EdgeTraceEntry {
  std::size_t edge = 0;    // shipping node's tree-wide flat interior index
  std::size_t tier = 0;    // shipping node's 1-based tier
  std::size_t cohort = 0;  // leaf updates folded into this partial
  double weight = 0.0;     // total aggregation weight the partial carries
  std::size_t payload_bytes = 0;  // encoded partial on this node's uplink
  std::size_t raw_bytes = 0;      // uncompressed partial bytes
  double encode_seconds = 0.0;    // node-side re-encode wall time
  double decode_seconds = 0.0;    // parent-side decode wall time
  double transfer_seconds = 0.0;  // uplink virtual seconds
  double arrival_seconds = 0.0;   // virtual time the partial merged upstream
  std::size_t downlink_bytes = 0;  // broadcast bytes over this node's link
  double downlink_seconds = 0.0;   // virtual seconds of those hops
  /// Edge-side EF residual norm after this partial's encode (0 unless
  /// edgeef=on rides a lossy tier codec).
  double ef_residual_norm = 0.0;
  /// kAggregated, or kLate for a partial that reached a buffered parent
  /// after it had already shipped (its weight never merged upstream).
  DeliveryStatus status = DeliveryStatus::kAggregated;
};

/// Per-round accounting. Client-side quantities are means over the round's
/// participants; comm_seconds is the mean simulated client->server transfer
/// (compression and decompression included separately).
struct RoundRecord {
  int round = 0;
  double accuracy = 0.0;
  double train_seconds = 0.0;       // mean participant local-training time
  double compress_seconds = 0.0;    // mean participant update-encoding time
  double decompress_seconds = 0.0;  // mean server decoding time per update
  double comm_seconds = 0.0;        // mean simulated transfer time per update
  double eval_seconds = 0.0;
  double mean_loss = 0.0;
  std::size_t bytes_sent = 0;       // total compressed bytes, participants
  std::size_t raw_bytes = 0;        // total uncompressed bytes, participants
  std::size_t participants = 0;     // updates folded into this aggregation
  /// Availability split at round open: clients whose eligibility draw
  /// passed / failed. With no population active every member is eligible
  /// (eligible_clients == the run's client count, ineligible_clients == 0).
  std::size_t eligible_clients = 0;
  std::size_t ineligible_clients = 0;
  double virtual_seconds = 0.0;     // virtual clock at aggregation time
  // ---- downlink (server->client broadcast) leg, zeros when free ----
  std::size_t downlink_bytes = 0;      // total broadcast bytes delivered
  std::size_t downlink_raw_bytes = 0;  // total uncompressed broadcast bytes
  double downlink_seconds = 0.0;        // mean broadcast transfer / client
  double downlink_encode_seconds = 0.0; // mean broadcast encode / client
  double downlink_decode_seconds = 0.0; // mean client-side decode
  /// Mean per-participant error-feedback residual norm (0 with EF off).
  double mean_ef_residual_norm = 0.0;
  /// Mean client-side seconds decoding the own payload for the EF residual
  /// (the extra codec work EF costs; 0 with EF off or a lossless uplink).
  double ef_decode_seconds = 0.0;
  // ---- backhaul (interior uplink) tiers, zeros/empty on flat runs ----
  std::size_t backhaul_bytes = 0;      // total MERGED partial bytes, all tiers
  std::size_t backhaul_raw_bytes = 0;  // total uncompressed partial bytes
  double backhaul_seconds = 0.0;         // mean uplink transfer / partial
  double backhaul_encode_seconds = 0.0;  // mean node re-encode / partial
  double backhaul_decode_seconds = 0.0;  // mean parent decode / partial
  /// Per-tier split of backhaul_bytes / backhaul_raw_bytes: entry t counts
  /// the merged partials shipped BY tier t+1 nodes. Sums to the totals —
  /// the byte-accounting invariant the property harness pins.
  std::vector<std::size_t> backhaul_tier_bytes;
  std::vector<std::size_t> backhaul_tier_raw_bytes;
  /// Total root->edge broadcast bytes (the downlink's first hop; the
  /// per-client downlink_bytes above count only the edge->client leg).
  std::size_t backhaul_downlink_bytes = 0;
  double backhaul_downlink_seconds = 0.0;  // mean root->edge hop / edge
  /// Total aggregation weight the root actually merged this round — the
  /// conserved quantity: equal to the summed weights of this round's
  /// kAggregated client entries minus what buffered parents shipped
  /// without (late partials' folded weight).
  double aggregate_weight = 0.0;
  /// Tier-1 edges that crashed before this round opened (tree-wide flat
  /// indices); their cohorts were re-sharded to the surviving siblings.
  std::vector<std::size_t> crashed_nodes;
  std::vector<ClientTraceEntry> clients;  // one entry per dispatched update
  std::vector<EdgeTraceEntry> edges;      // one entry per shipped partial
  double compression_ratio() const {
    return bytes_sent > 0 ? static_cast<double>(raw_bytes) /
                                static_cast<double>(bytes_sent)
                          : 0.0;
  }
  double downlink_compression_ratio() const {
    return downlink_bytes > 0 ? static_cast<double>(downlink_raw_bytes) /
                                    static_cast<double>(downlink_bytes)
                              : 0.0;
  }
  double backhaul_compression_ratio() const {
    return backhaul_bytes > 0 ? static_cast<double>(backhaul_raw_bytes) /
                                    static_cast<double>(backhaul_bytes)
                              : 0.0;
  }
};

struct FlRunResult {
  std::vector<RoundRecord> rounds;
  double final_accuracy = 0.0;
  double total_wall_seconds = 0.0;
  double total_virtual_seconds = 0.0;  // virtual clock at run end
  /// Peak number of simultaneously-alive decoded payloads at the ROOT —
  /// 1 under the streaming runtime, independent of the client count.
  std::size_t peak_decoded_updates = 0;
  /// Peak simultaneously-alive decoded payloads per aggregation point:
  /// index 0 = the root, 1 + AggregationTree::flat_index(level, i) for
  /// interior nodes (flat runs carry just the root entry). Streaming keeps
  /// every node at 1 regardless of cohort size — the O(fanout) memory
  /// claim is per NODE, never per tree.
  std::vector<std::size_t> peak_decoded_per_node;
  /// Events (client arrivals or partials) that landed after their round
  /// had already closed — possible only when buffered interior nodes ship
  /// early. Counted instead of traced: the round's record is immutable
  /// once closed.
  std::size_t late_events = 0;
  std::string scheduler;
};

/// One simulated link per client: the population's correlated device-class
/// profiles when `population` is non-null, else the heterogeneous config or
/// the shared fallback profile. Shared by the in-process coordinator and
/// the distributed edge runtime so both transports see identical links.
net::HeterogeneousNetwork build_population_network(
    const FlRunConfig& config, const ClientPopulation* population);

/// The full client-shard pipeline, shared by the in-process coordinator and
/// the distributed edge runtime: IID deal or Dirichlet label skew from
/// Rng(config.seed), optional power-law size skew from its own stream, then
/// per-client population data_weight truncation (deterministic prefix of
/// the already-shuffled shard — no extra randomness).
std::vector<std::vector<std::size_t>> build_client_shards(
    const data::Dataset& train, const FlRunConfig& config,
    const ClientPopulation* population);

class FlCoordinator {
 public:
  /// `scheduler` defaults (nullptr) to the synchronous full-participation
  /// barrier, which over a homogeneous network reproduces the classic
  /// round-loop trajectory exactly.
  FlCoordinator(const nn::ModelConfig& model_config, data::DatasetPtr train,
                data::DatasetPtr test, FlRunConfig config,
                UpdateCodecPtr codec, SchedulerPtr scheduler = nullptr);
  /// The root of a distributed run: every tier-1 edge trains its own
  /// clients behind `edges` (which must outlive the coordinator), so no
  /// training set, client or update codec lives here.
  FlCoordinator(const nn::ModelConfig& model_config, data::DatasetPtr test,
                FlRunConfig config, RemoteEdges& edges,
                SchedulerPtr scheduler = nullptr);

  /// Pump events until the configured number of aggregations completes and
  /// return the full trace.
  FlRunResult run();

  FlServer& server() { return server_; }
  /// The validated config the run uses, shard-shuffle seed resolved.
  const FlRunConfig& config() const { return config_; }
  const net::HeterogeneousNetwork& network() const { return network_; }
  /// Null when the broadcast is free (no downlink_spec configured).
  const DownlinkChannel* downlink() const { return downlink_.get(); }
  /// Null on flat runs; the edge tier under TopologyMode::kHier.
  const AggregationTree* topology() const { return tree_.get(); }

 private:
  FlCoordinator(const nn::ModelConfig& model_config, data::DatasetPtr train,
                data::DatasetPtr test, FlRunConfig config,
                UpdateCodecPtr codec, SchedulerPtr scheduler,
                RemoteEdges* remote);

  // One run()'s event pump: its state and its event handlers.
  struct Pump;

  nn::ModelConfig model_config_;
  data::DatasetPtr test_;
  FlRunConfig config_;
  UpdateCodecPtr codec_;
  SchedulerPtr scheduler_;
  FlServer server_;
  // Declared before network_: the member initializer builds the links from
  // the population's correlated device-class draws.
  std::unique_ptr<ClientPopulation> population_;  // null = no population
  net::HeterogeneousNetwork network_;
  std::vector<std::unique_ptr<FlClient>> clients_;
  std::vector<double> compute_seconds_;  // virtual training time per client
  std::unique_ptr<DownlinkChannel> downlink_;  // null = free broadcast
  std::unique_ptr<AggregationTree> tree_;      // null = flat star
  std::vector<ErrorFeedbackAccumulator> feedback_;  // one per client
  RemoteEdges* remote_ = nullptr;  // null = every edge runs in process
};

}  // namespace fedsz::core
