// The benchmark's three workloads and how one repetition of each is set up
// and run through the library's public entry points. Every input is made
// from the workload seed here; the library only ever sees the generated
// datasets, configs and codec spec.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/codec_spec.hpp"
#include "core/fl/coordinator.hpp"
#include "core/fl/federation.hpp"
#include "net/transport.hpp"

namespace roundbench {

namespace core = fedsz::core;
namespace data = fedsz::data;
namespace net = fedsz::net;
namespace nn = fedsz::nn;

/// Client-pool threads of every workload: one per core of the 4-core
/// machines the benchmark targets.
inline constexpr std::size_t kThreads = 4;

struct Workload {
  std::string name;
  std::string arch;
  nn::ModelScale scale = nn::ModelScale::kBench;
  /// Codec spec, comm keys included (topology= for the hierarchical run).
  std::string spec;
  std::size_t clients = 0;
  std::size_t samples_per_client = 0;
  std::size_t batch = 0;
  bool evaluate_every_round = true;
  std::size_t eval_limit = 0;
  /// Rounds per repetition (one run() call).
  int rounds = 1;
  /// Hierarchical run over loopback TCP: FederatedRoot + edge-worker
  /// threads instead of the in-process FlCoordinator.
  bool tcp = false;
};

/// The workload table; throws std::invalid_argument for an unknown name.
const Workload& find_workload(const std::string& name);
std::vector<std::string> workload_names();

/// Everything the seed determines.
struct Inputs {
  nn::ModelConfig model;
  core::CodecSpec spec;
  core::FlRunConfig config;
  core::DatasetSpec dataset;  // the recipe edge workers rebuild from
  data::DatasetPtr train;     // dataset.take samples of the training split
  data::DatasetPtr test;
};

Inputs make_inputs(const Workload& workload, std::uint64_t seed);

/// Optional wrappers the traced run installs around the objects the runtime
/// accepts from its caller. Null members leave the object untouched.
struct Hooks {
  std::function<core::UpdateCodecPtr(core::UpdateCodecPtr)> wrap_codec;
  /// `root_side` tells the root's accepted end from a worker's connected
  /// end; `edge` is the connection's index.
  std::function<net::StreamPtr(net::StreamPtr, bool root_side,
                               std::size_t edge)>
      wrap_stream;
};

/// What one run call returned and cost.
struct RunOutput {
  core::FlRunResult result;
  double wall_seconds = 0.0;  // the run call alone
  double cpu_seconds = 0.0;   // process user+sys CPU over the same window
};

/// One repetition: constructed by setup() (everything before the run call),
/// consumed by run(), which may be called once. Destruction closes every
/// socket and joins every thread the session started, on every path.
class Session {
 public:
  virtual ~Session() = default;
  /// The run call. Throws on a root failure or when any edge worker threw
  /// (the worker's message is kept).
  virtual RunOutput run() = 0;
};

std::unique_ptr<Session> setup(const Workload& workload, const Inputs& inputs,
                               const Hooks& hooks = {});

/// The same configuration run in process through FlCoordinator — the
/// reference the TCP run's deterministic fields must equal.
core::FlRunResult run_in_process(const Workload& workload,
                                 const Inputs& inputs);

}  // namespace roundbench
