// Shared utilities for the benchmark harness: fixed-width table printing in
// the paper's row/column layout, a common CLI (--clients/--rounds/
// --bandwidth/--codec/--json/--out/--smoke) with a machine-readable JSON
// emitter (util/json.hpp), codec timing helpers, and a disk cache of
// briefly-trained models so every bench binary measures compression on
// trained (spiky, zero-centred) weights without re-paying training time.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "compress/lossless/lossless.hpp"
#include "compress/lossy/lossy.hpp"
#include "nn/models.hpp"
#include "tensor/state_dict.hpp"
#include "util/json.hpp"

namespace fedsz::benchx {

/// Fixed-width console table. Columns are sized to the widest cell.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);
  void add_row(std::vector<std::string> cells);
  void print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

std::string fmt(double value, int precision = 3);
std::string fmt_bytes(std::size_t bytes);

/// True when FEDSZ_BENCH_FULL=1: run the paper's full grid instead of the
/// laptop-scale default subset.
bool full_grid();

// ---- shared bench CLI ----

/// Flags every bench binary understands. Zero / empty means "use the
/// bench's default"; --smoke shrinks the grid to a CI-sized run.
struct BenchOptions {
  std::size_t clients = 0;     // --clients N
  int rounds = 0;              // --rounds N
  double bandwidth_mbps = 0.0; // --bandwidth MBPS
  std::string codec;           // --codec SPEC (codec spec string)
  std::string json_path;       // --json PATH (write machine-readable output)
  /// --trace PATH: benches that run full federated campaigns write the
  /// last run's complete trace (core/fl/trace.hpp JSON: every round,
  /// client delivery, and shipped partial) to this file.
  std::string trace_path;
  /// --out PATH: the console output (tables and shape notes) goes to this
  /// file instead of stdout, so CI artifact steps don't shell-redirect.
  /// Applied inside parse_bench_options (stdout is reopened onto the
  /// file); exits(2) when the file cannot be opened.
  std::string out_path;
  bool smoke = false;          // --smoke
  /// --seed N: RNG seed for runs/networks/data draws. has_seed
  /// distinguishes an explicit 0 from "keep the bench's default".
  std::uint64_t seed = 0;
  bool has_seed = false;
  std::size_t threads = 0;     // --threads N (0 = bench default)

  /// The seed to use: the --seed value when given, else `fallback`.
  std::uint64_t seed_or(std::uint64_t fallback) const {
    return has_seed ? seed : fallback;
  }
  /// The thread count to use: the --threads value when given, else
  /// `fallback`.
  std::size_t threads_or(std::size_t fallback) const {
    return threads > 0 ? threads : fallback;
  }
};

/// Parse the shared flags. Prints usage and exits(2) on unknown flags or
/// malformed values; exits(0) on --help.
BenchOptions parse_bench_options(int argc, char** argv);

/// Train a bench-scale model for `epochs` passes over `samples` synthetic
/// samples and return its state dict. Results are cached under
/// ./bench_cache/ so repeated bench binaries do not retrain.
StateDict trained_state_dict(const std::string& arch,
                             const std::string& dataset,
                             nn::ModelScale scale = nn::ModelScale::kBench,
                             int epochs = 1, std::size_t samples = 768);

/// Concatenated float storage of every tensor routed to the lossy path by
/// Algorithm 1 (the payload the EBLC benchmarks compress).
std::vector<float> lossy_partition_values(const StateDict& dict,
                                          std::size_t threshold = 1000);

/// Serialized bytes of the lossless partition (the "metadata" payload of
/// Table II).
Bytes lossless_partition_bytes(const StateDict& dict,
                               std::size_t threshold = 1000);

struct CodecTiming {
  double compress_seconds = 0.0;
  double decompress_seconds = 0.0;
  std::size_t raw_bytes = 0;
  std::size_t compressed_bytes = 0;
  double ratio() const {
    return compressed_bytes ? static_cast<double>(raw_bytes) /
                                  static_cast<double>(compressed_bytes)
                            : 0.0;
  }
  /// Compression throughput over the raw payload, MB/s.
  double throughput_mb_s() const {
    return compress_seconds > 0.0
               ? static_cast<double>(raw_bytes) / 1e6 / compress_seconds
               : 0.0;
  }
};

// ---- repeated timings ----

/// Median and quartiles of a set of timings.
struct TrialStats {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t samples = 0;
  /// Interquartile range relative to the median (0 when the median is 0).
  double spread() const { return median > 0.0 ? (q3 - q1) / median : 0.0; }
};

TrialStats trial_stats(std::vector<double> samples);

/// Interleaved trials: `trials` passes, each calling run_case(i) once for
/// every case i in order, so slow host drift lands on all cases alike
/// instead of on whichever case ran last. A first warm-up pass is not
/// kept. run_case returns the seconds of the work it timed; the result
/// holds one TrialStats per case.
std::vector<TrialStats> interleaved_trials(
    std::size_t cases, int trials,
    const std::function<double(std::size_t)>& run_case);

CodecTiming measure_lossy(const lossy::LossyCodec& codec,
                          std::span<const float> data,
                          const lossy::ErrorBound& bound, int repetitions = 3);

CodecTiming measure_lossless(const lossless::LosslessCodec& codec,
                             ByteSpan data, int repetitions = 3);

/// Global operator-new calls so far in this process. Defined in
/// alloc_hook.cpp next to a counting replacement of the global allocator:
/// referencing this function links the hook into the binary, so deltas of
/// this counter around an encode measure its heap allocations exactly.
std::uint64_t allocation_count();

}  // namespace fedsz::benchx
