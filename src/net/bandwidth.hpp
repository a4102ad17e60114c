// Bandwidth/latency model for client-server transfers. The paper evaluates
// communication on *simulated* bandwidth (Section VI-C: measured MPI
// transfers padded with sleeps to a target bandwidth); this module computes
// the same quantity analytically — transfer time = latency + bits/bandwidth —
// and implements the Eqn (1) decision rule for when compression is
// worthwhile.
#pragma once

#include <cstddef>
#include <limits>

namespace fedsz::net {

struct NetworkProfile {
  double bandwidth_mbps = 10.0;  // megabits per second (paper's edge default)
  double latency_s = 0.0;

  bool operator==(const NetworkProfile&) const = default;
};

class SimulatedNetwork {
 public:
  explicit SimulatedNetwork(NetworkProfile profile);

  /// Seconds to move `bytes` across the link.
  double transfer_seconds(std::size_t bytes) const;

  const NetworkProfile& profile() const { return profile_; }

 private:
  NetworkProfile profile_;
};

/// Eqn (1): total time with compression (t_C + t_D + S'/B_N) vs without
/// (S/B_N). `worthwhile` is the paper's decision criterion.
struct CompressionDecision {
  double compressed_seconds = 0.0;
  double uncompressed_seconds = 0.0;
  bool worthwhile = false;
  /// uncompressed / compressed. A zero-cost compressed path is infinitely
  /// faster, not 0x faster.
  double speedup() const {
    return compressed_seconds > 0.0
               ? uncompressed_seconds / compressed_seconds
               : std::numeric_limits<double>::infinity();
  }
};

CompressionDecision evaluate_compression(std::size_t raw_bytes,
                                         std::size_t compressed_bytes,
                                         double compress_seconds,
                                         double decompress_seconds,
                                         const SimulatedNetwork& network);

}  // namespace fedsz::net
