// One round of a workload replayed serially through the public calls of
// the layers the runtime constructs internally (FlClient, FlServer,
// EdgeAggregator, the tier codec), each call inside its own span. Every
// update follows the runtime's per-update order — train, encode, decode,
// fold — and the round closes the way the runtime closes it. Round 0 is
// replayed from the same seeds as the live run, so its uplink bytes must
// equal the live run's first round exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

namespace roundbench {

/// Busy seconds of each layer over the replayed round.
struct ReplayTimes {
  std::vector<double> train;   // FlClient::run_round, per client
  std::size_t train_samples = 0;
  std::vector<double> encode;  // UpdateCodec::encode, per client
  std::vector<double> decode;  // UpdateCodec::decode, per client
  std::size_t update_bytes = 0;         // float bytes of one update
  double encode_allocs_per_call = 0.0;  // operator-new calls per encode
  std::size_t uplink_bytes = 0;         // summed payload sizes
  double fold = 0.0;        // FlServer::accumulate (flat)
  std::size_t folds = 0;
  double finalize = 0.0;    // FlServer::finalize_round
  double eval = 0.0;        // one FlServer::evaluate
  std::size_t eval_samples = 0;
  double edge_fold = 0.0;       // EdgeAggregator::fold (hier)
  double partial_encode = 0.0;  // EdgeAggregator::finalize_and_encode
  double partial_decode = 0.0;  // root-side decode of each partial
  double merge = 0.0;           // FlServer::merge_partial
  /// Hier: per edge, the serial work an edge worker does in the round.
  std::vector<double> edge_work;
  /// Partition replays on one client's update, MB/s of raw input/output.
  double lossy_compress_mb_s = 0.0;
  double lossy_decompress_mb_s = 0.0;
  double lossless_compress_mb_s = 0.0;
  double lossless_decompress_mb_s = 0.0;
  /// Decoded updates checked against their originals, and what failed.
  std::size_t checked = 0;
  std::vector<std::string> violations;
};

ReplayTimes replay_round(const Inputs& inputs, Tracer& tracer);

}  // namespace roundbench
