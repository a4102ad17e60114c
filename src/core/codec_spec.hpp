// Spec-string codec construction: one grammar that names every update-codec
// configuration, used by make_codec, the bench --codec flag and the
// examples, so there is a single construction path from text to codec.
//
//   spec     := family [ ":" kv ("," kv)* ]
//   family   := "fedsz" | "fedsz-parallel" | "sparse" | "identity"
//               | "uncompressed"
//   kv       := key "=" value
//   keys     := lossy=sz2|sz3|szx|zfp        (fedsz families only)
//               lossless=blosc-lz|zlib|zstd|gzip|xz
//               eb=[rel:|abs:]FLOAT          (bare FLOAT means rel)
//               policy=threshold|layerwise|schedule[:FACTOR]|magnitude
//                      |gradaware[:BETA]     (BETA = sensitivity-EMA
//                                             smoothing in (0,1))
//               sparsity=adaptive|FRACTION   (sparse family only: fraction
//                                             of elements dropped, (0,1);
//                                             adaptive = mean+stddev
//                                             magnitude threshold)
//               bits=adaptive|N              (sparse family only: survivor
//                                             quantization width cap 1..31;
//                                             never loosens the bound)
//               chunk=N[k|m]                 (elements per lossy chunk)
//               threads=N                    (0 = one per hardware thread)
//               threshold=N                  (Algorithm 1 lossy threshold)
//               downlink=SPEC                (server->client broadcast codec;
//                                             inner options separate with ';'
//                                             since ',' ends the outer pair)
//               downmode=full|delta          (broadcast whole model or the
//                                             per-client acknowledged delta)
//               ef=on|off                    (per-client uplink error
//                                             feedback)
//               topology=flat|hier:<N>[x<M>...]
//                                            (aggregation tree: flat star,
//                                             or fan-ins per tier bottom-up
//                                             — hier:32x16 = cohorts of 32
//                                             under tier-1 edges, 16 edges
//                                             per tier-2 node)
//               backhaul=SPEC                (partial re-encode codec shared
//                                             by every tier; inner options
//                                             ';'-separated like downlink)
//               backhaul<k>=SPEC             (per-tier override, 1-based:
//                                             backhaul2= recompresses only
//                                             tier 2's uplink)
//               edgemode=sync|buffered:<K>   (interior ship discipline:
//                                             barrier, or FedBuff-style
//                                             after K folds)
//               edgeef=on|off                (edge-side error feedback on
//                                             lossy backhauls)
//               shard=contiguous|shuffled    (client->edge assignment;
//                                             shuffled is a seeded
//                                             permutation)
//               transport=inproc|tcp:<port>  (how hier edges run: simulated
//                                             in-process, or each edge
//                                             cohort as its own process
//                                             over TCP; tcp:0 picks a free
//                                             port)
//               checkpoint=<path>:<K>        (atomically checkpoint the
//                                             coordinator to <path> every K
//                                             rounds; the path may not
//                                             contain ',' or ';')
//               data=PART[+PART...]          (client data sharding, '+'-
//                                             composable: iid (the default
//                                             deal), dirichlet:<alpha>
//                                             label skew, sizeskew:<s>
//                                             power-law per-client sample
//                                             counts — e.g.
//                                             data=dirichlet:0.5+sizeskew:1.2)
//               population=PRESET[:OPT;...]  (client population: device
//                                             classes + diurnal availability
//                                             driving per-round eligibility;
//                                             presets mixed|mobile|iot_fleet
//                                             |uniform|custom, options
//                                             ';'-separated — see
//                                             core/fl/population.hpp)
//
// The sparse family reroutes every would-be-lossy tensor through the
// sparse-quantization codec (threshold + adaptive-width quantization) at
// the spec's bound; it takes every key EXCEPT lossy= and composes with any
// policy= (the policy picks the bound, sparse picks the representation),
// e.g. "sparse:eb=rel:1e-2,sparsity=0.9,bits=8,policy=gradaware:0.5,ef=on".
//
// The identity family takes ONLY the comm keys (an uncompressed uplink
// can still configure the broadcast, error feedback and topology), e.g.
// "identity:downlink=fedsz:eb=rel:1e-3,ef=on".
//
// Examples:
//   "fedsz"
//   "fedsz:eb=rel:1e-3"
//   "fedsz:lossy=sz3,eb=rel:1e-3,lossless=zstd,policy=schedule,chunk=64k"
//   "fedsz:eb=rel:1e-2,downlink=fedsz:eb=rel:1e-3;lossless=zstd,ef=on"
//   "identity"
//
// parse_codec_spec() -> CodecSpec (throws InvalidArgument listing the valid
// options on any unknown family/key/value); format_codec_spec() renders the
// canonical normalized form ("fedsz-parallel" normalizes to threads=0,
// "uncompressed" to "identity", chunk suffixes to element counts), so
// format(parse(s)) is a normal form and format∘parse is idempotent.
//
// Codec keys land in CodecSpec's own fields; comm keys land in
// CodecSpec::comm, a CommSettings — the struct FlRunConfig inherits — so a
// run takes them with one assignment (FlRunConfig::apply_comm_spec).
#pragma once

#include <string>

#include "core/fl/downlink.hpp"
#include "core/fl/population.hpp"
#include "core/fl/topology.hpp"
#include "core/update_codec.hpp"

namespace fedsz::core {

/// What the comm keys configure: how a run broadcasts, aggregates, ships,
/// shards and checkpoints, rather than how a codec encodes. FlRunConfig
/// inherits these fields; parse_codec_spec fills CodecSpec::comm, and
/// format_codec_spec renders every field that differs from its default.
struct CommSettings {
  /// Server->client broadcast codec spec (downlink=), in canonical comma
  /// form, e.g. "fedsz:eb=rel:1e-3" or "identity". Empty keeps the broadcast
  /// free and lossless. When set, broadcast bytes are charged against each
  /// client's own link BEFORE its local training starts, and clients train
  /// on the decoded (possibly lossy) model.
  std::string downlink_spec;
  /// downmode=: kFull encodes the whole global once per round; kDelta
  /// encodes each client's delta against the model it last acknowledged.
  DownlinkMode downlink_mode = DownlinkMode::kFull;
  /// ef=on: per-client uplink error feedback — the residual the lossy
  /// encoder dropped is folded into the next round's update before encoding.
  bool error_feedback = false;
  /// Aggregation topology (topology=, backhaul=, backhaul<k>=, edgemode=,
  /// edgeef=, shard=): the default flat star, or a hierarchical tree
  /// (TopologyMode::kHier, set from the tiers) sharding clients under edge
  /// aggregators that re-encode weight-carrying partial means over their own
  /// backhaul links. Hierarchical runs require a barrier scheduler (sync /
  /// sampled_sync), applied per edge cohort. No key sets backhaul_network,
  /// backhaul_heterogeneous or shard_seed.
  TopologyConfig topology;
  /// Wire transport for hierarchical edges (transport=), canonical: empty =
  /// in-process simulation (transport=inproc normalizes to empty);
  /// "tcp:<port>" = each edge cohort is its own process over TCP (port 0
  /// picks a free one). Consumed by the federation driver
  /// (core/fl/federation.hpp), not by FlCoordinator::run() itself.
  std::string transport;
  /// Checkpoint/resume (checkpoint=<path>:<K>): with a non-empty path the
  /// coordinator atomically rewrites `checkpoint_path` every
  /// `checkpoint_every` completed rounds.
  std::string checkpoint_path;
  std::size_t checkpoint_every = 0;
  /// Client data sharding (data=dirichlet:<alpha>): 0 = IID deal (the
  /// default and the byte-stable pre-existing trajectory), > 0 = Dirichlet
  /// label-skew partition with this concentration alpha (lower = more
  /// skew), seeded from the run seed so the shards are deterministic.
  double dirichlet_alpha = 0.0;
  /// Power-law per-client sample-count skew (data=sizeskew:<s>): 0 = off;
  /// > 0 applies apply_sizeskew after the base partition, from its own
  /// stream (seed ^ 0x517E55EDull) so the base shards are unchanged.
  double sizeskew_s = 0.0;
  /// Client population (population=): device classes with correlated
  /// compute/link/data-size draws plus an availability model sampled on the
  /// virtual clock at each round open — only eligible clients enter the
  /// scheduler's cohort draw (per edge cohort under kHier). Empty (the
  /// default) keeps the flat always-available pool and consumes no extra
  /// randomness. Requires a barrier scheduler; mutually exclusive with
  /// FlRunConfig::heterogeneous (the population owns the link draws).
  PopulationConfig population;

  bool operator==(const CommSettings&) const = default;
};

struct CodecSpec {
  /// True for the uncompressed baseline; every other codec field is ignored.
  bool identity = false;
  /// True for the sparse family: would-be-lossy tensors ride the sparse
  /// path (lossy_id is ignored; sparsity/sparse_bits apply).
  bool sparse = false;
  /// Sparse keep-mask knob (sparsity= key): fraction of elements dropped in
  /// (0, 1), or 0 for the adaptive mean+stddev magnitude threshold.
  double sparsity = 0.0;
  /// Survivor quantization width cap (bits= key), 1..31; 0 = adaptive.
  unsigned sparse_bits = 0;
  lossy::LossyId lossy_id = lossy::LossyId::kSz2;
  lossless::LosslessId lossless_id = lossless::LosslessId::kBloscLz;
  lossy::ErrorBound bound = lossy::ErrorBound::relative(1e-2);
  /// One of compression_policy_names().
  std::string policy = "threshold";
  /// Per-round multiplier for policy=schedule (the optional :FACTOR arg).
  double schedule_factor = 0.7;
  /// Sensitivity-EMA smoothing for policy=gradaware (the optional :BETA
  /// arg), in (0, 1).
  double gradaware_beta = 0.5;
  std::size_t chunk_elements = 64 * 1024;
  /// Chunk-pipeline workers; 0 = one per hardware thread.
  std::size_t threads = 1;
  std::size_t lossy_threshold = 1000;
  /// Everything the comm keys set.
  CommSettings comm;

  /// True when any comm key is set — the keys that configure an FL run
  /// rather than a codec. The single predicate behind every "this spec
  /// cannot carry comm keys" rejection (nested downlink/backhaul specs,
  /// make_codec).
  bool has_comm_keys() const { return comm != CommSettings{}; }
};

/// Parse `spec` against library defaults. Throws InvalidArgument on
/// malformed input, naming the valid families/keys/values.
CodecSpec parse_codec_spec(const std::string& spec);

/// Parse `spec` with explicit defaults for every omitted key.
CodecSpec parse_codec_spec(const std::string& spec, CodecSpec defaults);

/// Canonical normalized rendering: "identity", or "fedsz:" followed by
/// every key in fixed order with canonical value spelling.
std::string format_codec_spec(const CodecSpec& spec);

/// Lower a (non-identity) spec to the FedSzConfig it describes, including
/// the constructed CompressionPolicy (null for policy=threshold, which is
/// FedSz's byte-stable default).
FedSzConfig codec_spec_config(const CodecSpec& spec);

/// Build the update codec a spec describes.
UpdateCodecPtr make_codec(const CodecSpec& spec);

/// Parse `spec` and build the codec it describes in one step — the
/// preferred construction path for call sites that hold a spec STRING
/// (benches, tests, tools). Throws InvalidArgument when the spec carries
/// comm keys: a bare codec cannot honor downlink/topology/... settings,
/// and dropping them silently would hide a misconfigured run.
UpdateCodecPtr make_codec(const std::string& spec);

}  // namespace fedsz::core
