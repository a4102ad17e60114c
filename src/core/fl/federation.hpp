// Cross-process federation: a `topology=hier:<N>[x<M>...]` campaign whose
// tier-1 edge cohorts each train inside their own WORKER (a thread
// over a loopback stream in tests, a separate `fedsz_edge_worker` process
// over TCP in production), speaking the versioned frame protocol from
// net/wire.hpp:
//
//   root -> worker   HELLO      run manifest: codec keys, dataset recipe,
//                               model, the put_run_config bytes, edge index
//   worker -> root   ACK        run_fingerprint of the config the worker
//                               parsed + its edge index
//   root -> worker   ROUND_OPEN round index, virtual open time, cohort
//   root -> worker   BROADCAST  the serialized global model (bit-exact)
//   worker -> root   PARTIAL    one re-encoded partial mean + each client's
//                               update cost and compute budget
//   worker -> root   HEARTBEAT  liveness beacon (wall-clock cadence)
//   root -> worker   BYE        campaign over
//
// One pump: the root IS FlCoordinator::run(), with its tier-1 edges behind
// the RemoteEdges seam (core/fl/round_steps.hpp). FederatedRoot keeps only
// the wire work: the handshake, one reader thread per worker,
// heartbeat/EOF crash detection and BYE. The pump sends each round to every
// worker before it waits on any, so edges train concurrently, then
// schedules each reported update after the client's compute budget and
// over the client's own link, exactly as it schedules a local one: the same
// queue orders remote arrivals, the same code traces them and scores
// Eqn (1), and an edge's partial ships when its last update arrives. A
// worker folds its cohort in that same virtual-clock order, so a TCP run is
// BIT-IDENTICAL, round for round, to the in-process run. Tiers above the
// first are ordinary in-process nodes of the root's pump.
//
// Churn: a worker that closes before its handshake ACK never confirmed its
// build, so the run fails with a TransportError. A worker that dies after
// its ACK (EOF, or silence past the heartbeat timeout) is crashed. If it
// dies owing a round's PARTIAL, that cohort drops at the round's open time
// (kDropped traces at the edge's node, weight 0). At every later round open
// the edge is listed in RoundRecord::crashed_nodes and its members re-home
// by the in-process policy: a seeded shuffle from the failure stream, then
// round-robin onto the survivors (workers train whatever cohort the root
// assigns, so no data moves).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/fl/coordinator.hpp"
#include "core/fl/round_steps.hpp"
#include "net/transport.hpp"

namespace fedsz::core {

/// How both sides construct the training data: by name through
/// data::make_dataset, so the manifest ships a recipe, never samples.
struct DatasetSpec {
  std::string name = "cifar10";
  std::uint64_t seed = 7;
  /// Nonzero: train on only the first `take` samples (data::take), the
  /// idiom every example/test uses to keep synthetic runs fast.
  std::size_t take = 0;
};

struct FederationOptions {
  /// Worker-side HEARTBEAT cadence (wall seconds).
  double heartbeat_interval_seconds = 0.25;
  /// Root-side silence budget while awaiting a worker's partial; past it
  /// the worker is declared crashed and its members re-shard.
  double heartbeat_timeout_seconds = 60.0;
};

/// Everything an edge worker needs to rebuild its deterministic slice of
/// the run: the canonical codec spec with the codec keys only (the worker
/// builds its uplink codec from it, nothing else), the dataset recipe, the
/// model, the run config (every run setting, comm settings included,
/// shipped as put_run_config bytes — the bytes run_fingerprint hashes) and
/// this worker's edge assignment. The worker ACKs run_fingerprint(config,
/// model) of the manifest it parsed, so a worker that would rebuild a
/// different run fails the handshake.
struct RunManifest {
  std::string codec_spec;
  DatasetSpec dataset;
  nn::ModelConfig model;
  FlRunConfig config;
  std::uint32_t edge = 0;  // this worker's tier-1 edge index
  /// Worker HEARTBEAT cadence (from the root's FederationOptions).
  double heartbeat_interval_seconds = 0.25;
};

Bytes serialize_manifest(const RunManifest& manifest);
/// Throws CorruptStream on truncation or malformed fields.
RunManifest parse_manifest(ByteSpan bytes);

/// A PARTIAL frame body: the round an edge answers and its report.
struct PartialMsg {
  int round = 0;
  EdgeReport report;
};

Bytes serialize_partial(const PartialMsg& msg);
/// Throws CorruptStream on truncation, malformed fields or a client id
/// outside [0, clients).
PartialMsg parse_partial(ByteSpan bytes, std::size_t clients);

/// The server process of a distributed campaign. Restrictions (enforced in
/// the constructor): a hierarchy, a barrier scheduler, sync edges, a free
/// lossless broadcast (no downlink spec), no injected failure schedule or
/// population drop= (wire churn IS the failure model here), and no
/// checkpoint together with ef=on or edgeef=on (those residuals live in
/// the workers, which a checkpoint does not capture).
class FederatedRoot {
 public:
  /// Only the codec keys of `spec` are read (they build each worker's
  /// uplink codec); every comm setting comes from `config`, which takes a
  /// spec's comm keys through apply_comm_spec. With
  /// config.transport == "tcp:<port>" the constructor binds the listener
  /// immediately so port() is valid before any worker spawns.
  FederatedRoot(const nn::ModelConfig& model_config, DatasetSpec train,
                data::DatasetPtr test, FlRunConfig config,
                const CodecSpec& spec, SchedulerPtr scheduler = nullptr,
                FederationOptions options = {});
  ~FederatedRoot();

  /// Bound TCP port (only after constructing with a tcp transport).
  std::uint16_t port() const;
  std::size_t edge_count() const { return edge_count_; }
  /// The manifest worker `edge` would receive (test introspection).
  RunManifest manifest(std::uint32_t edge) const;

  /// TCP mode: accept edge_count() worker connections (assignment follows
  /// accept order), then drive the campaign to completion.
  FlRunResult run();
  /// Drive the campaign over caller-supplied connected streams, one per
  /// edge — the loopback-transport path (workers as in-process threads).
  FlRunResult run_with_streams(std::vector<net::StreamPtr> streams);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::size_t edge_count_ = 0;
};

/// The entire worker side: handshake, each round's edge work (train the
/// cohort, encode, fold in virtual-clock order, re-encode the partial),
/// heartbeats, clean BYE/EOF exit. Blocks until the campaign
/// ends or the stream dies; throws TransportError/CorruptStream on a
/// broken or malformed peer.
void run_edge_worker(net::StreamPtr stream);

}  // namespace fedsz::core
