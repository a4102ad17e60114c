// The round decisions of the one round engine, each implemented once. The
// event pump (FlCoordinator::run) calls them for every run; the edge worker
// of a distributed run (core/fl/federation.hpp) calls the update-production
// steps for the clients it trains. RemoteEdges below is the seam between
// the pump and tier-1 edges that run in another process.
//
// Each step consumes randomness and accumulates its sums in a fixed order,
// so every trajectory pin holds.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/fl/coordinator.hpp"

namespace fedsz::core {

// ---- seed derivations ----

/// The two streams a round open draws from (checkpointed mid-sequence).
struct RoundStreams {
  Rng cohort;       // the scheduler's cohort draws
  Rng eligibility;  // availability and population mid-round offline draws
  explicit RoundStreams(std::uint64_t run_seed);
};

/// The run's device population (null without one), seeded from the run.
std::unique_ptr<ClientPopulation> make_population(const FlRunConfig& config);

/// Client `i`, training on `shard` of `train` with its derived seed.
std::unique_ptr<FlClient> make_client(std::size_t i,
                                      const nn::ModelConfig& model,
                                      const data::DatasetPtr& train,
                                      const std::vector<std::size_t>& shard,
                                      const FlRunConfig& config);

/// Virtual training seconds per client: proportional to the shard, times a
/// speed factor drawn in client order from the compute-speed stream, times
/// the device class's compute multiplier.
std::vector<double> client_compute_budgets(
    const FlRunConfig& config,
    const std::vector<std::vector<std::size_t>>& shards,
    const ClientPopulation* population);

// ---- update production ----

/// What producing one client update cost, beside its bytes.
struct UpdateCost {
  std::size_t samples = 0;
  CompressionStats stats;  // the encode pass (bytes, plan census, timing)
  double train_seconds = 0.0;
  double mean_loss = 0.0;
  double ef_residual_norm = 0.0;   // after this update's encode
  double ef_decode_seconds = 0.0;  // decoding the own payload for the residual
};

struct ProducedUpdate : UpdateCost {
  Bytes payload;
};

/// Train `client` on `model` and encode its update. `feedback` is the
/// client's residual when error feedback is configured (else null); against
/// a lossy codec it is folded in before the encode and absorbs what the
/// encoder dropped after. A lossless codec drops nothing, so it is skipped.
ProducedUpdate produce_update(FlClient& client, const StateDict& model,
                              int round, const UpdateCodec& codec,
                              ErrorFeedbackAccumulator* feedback);

// ---- round open ----

/// The round-open draw over this round's `members` (per tier-1 edge, after
/// any re-homing; a flat run is one edge holding clients 0..n-1). Returns
/// each edge's cohort in dispatch order.
///
/// With a population, one availability draw per member in (edge, member)
/// order; if all fail, the most-available client (lowest index on ties)
/// wakes without consuming randomness. Each edge with an eligible member
/// then draws its cohort over its eligible pool. The eligible/ineligible
/// split and one kIneligible trace per offline client (client order, node
/// `node_base + edge`) go into `record`.
std::vector<std::vector<std::size_t>> draw_round_open(
    const std::vector<std::vector<std::size_t>>& members, std::size_t clients,
    const ClientPopulation* population, Scheduler& scheduler,
    RoundStreams& streams, double now, std::size_t node_base,
    RoundRecord& record);

// ---- accounting into RoundRecord ----

/// The broadcast leg a client crossed before training (zero while free).
struct DownlinkLeg {
  std::size_t bytes = 0;
  std::size_t raw_bytes = 0;
  double seconds = 0.0;
  double encode_seconds = 0.0;
  double decode_seconds = 0.0;
};

/// Appends the weight-0 trace of a client that delivered nothing: dropped,
/// evicted, or ineligible.
void trace_undelivered(RoundRecord& record, std::size_t client,
                       std::size_t node, DeliveryStatus status,
                       int dispatch_round, double dispatch_seconds,
                       double at_seconds, const ClientPopulation* population,
                       const DownlinkLeg& downlink = {});

/// One update as its aggregation point received it.
struct ClientDelivery : UpdateCost {
  std::size_t client = 0;
  std::size_t node = 0;  // 0 = the root, 1 + flat index of a tier-1 edge
  int dispatch_round = 0;
  double dispatch_seconds = 0.0;
  double arrival_seconds = 0.0;
  double transfer_seconds = 0.0;  // over the client's own link
  double weight = 0.0;
  std::size_t payload_bytes = 0;
  double decode_seconds = 0.0;  // the aggregation point's decode (wall)
  DownlinkLeg downlink;
};

/// `update` as client `client` delivered it; the caller fills in where,
/// when and at what weight it arrived.
ClientDelivery delivery_of(std::size_t client, const ProducedUpdate& update);

/// Appends the kAggregated trace of a delivery, before its weight and
/// Eqn (1) decision, and returns it (a late arrival is traced by this alone).
ClientTraceEntry& trace_delivery(RoundRecord& record,
                                 const ClientDelivery& delivery,
                                 const ClientPopulation* population);

/// A folded delivery: traced with its weight and its Eqn (1) decision on
/// the client's own `link`, and added to the round's participant sums.
void account_delivery(RoundRecord& record, const ClientDelivery& delivery,
                      const ClientPopulation* population,
                      const net::SimulatedNetwork& link);

/// The kAggregated trace of a partial that node (`level`, flat index
/// `flat`) shipped over its uplink.
EdgeTraceEntry partial_trace(const EncodedPartial& partial, std::size_t flat,
                             std::size_t level, double transfer_seconds,
                             double arrival_seconds);

/// A merged partial (decode time stamped on its trace): added to the
/// round's backhaul sums and per-tier byte split.
void account_partial(RoundRecord& record, EdgeTraceEntry trace);

// ---- remote tier-1 edges ----

/// One client's update as its remote edge reports it: what producing it
/// cost, its payload size and the edge's decode time (no node, timing or
/// weight: the root's own clock and links supply those), plus the virtual
/// seconds the client trained.
struct ReportedUpdate {
  ClientDelivery delivery;
  double compute_seconds = 0.0;
};

/// A remote edge's round: its cohort's updates in dispatch order and the
/// re-encoded partial it folded them into.
struct EdgeReport {
  std::vector<ReportedUpdate> updates;
  EncodedPartial partial;
};

/// Tier-1 edges that run in worker processes (FederatedRoot). The pump
/// hands a round to every edge at once, then schedules each reported update
/// on its own virtual clock exactly as it schedules a local one.
class RemoteEdges {
 public:
  virtual ~RemoteEdges() = default;
  /// Whether edge `edge`'s worker has died; its clients then re-home at
  /// every later round open.
  virtual bool crashed(std::size_t edge) const = 0;
  /// Sends round `round`, open at virtual time `now` on `global`, to every
  /// edge with a non-empty cohort before it waits on any, so the edges
  /// train concurrently; then waits for them all. Returns each edge's
  /// report, nullopt where the edge had no cohort or its worker died first.
  virtual std::vector<std::optional<EdgeReport>> run_round(
      int round, double now,
      const std::vector<std::vector<std::size_t>>& cohorts,
      const StateDict& global) = 0;
};

// ---- round close ----

/// Aborts the round when nobody was aggregated (the global stays put), else
/// finalizes it; turns the participant and merged-partial sums into means,
/// stamps the virtual clock, and evaluates on `test` when due.
void finish_round(RoundRecord& record, FlServer& server, double virtual_now,
                  const FlRunConfig& config, const data::Dataset& test);

}  // namespace fedsz::core
