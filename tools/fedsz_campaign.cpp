// Campaign driver: one binary that runs a full federated campaign either
// in-process (FlCoordinator — flat or hierarchical) or distributed
// (FederatedRoot + one fedsz_edge_worker process per tier-1 edge, selected
// by a transport=tcp:<port> comm key in the codec spec). Both checkpoint
// and resume (a distributed run refuses checkpoint= with ef=on or
// edgeef=on, whose residuals live in the workers).
//
//   # in-process, checkpointed every round, resumable after a crash:
//   ./build/fedsz_campaign --clients 8 --rounds 6
//       --codec "fedsz:eb=rel:1e-2,topology=hier:2,checkpoint=/tmp/run.ck:1"
//   ./build/fedsz_campaign --clients 8 --rounds 6 --resume --codec "...same..."
//
//   # distributed: root + auto-spawned TCP workers, trace to JSON:
//   ./build/fedsz_campaign --clients 8 --rounds 4 --trace run.json
//       --codec "fedsz:eb=rel:1e-2,topology=hier:2,transport=tcp:0"
//
// Per-round output lines carry ONLY virtual-clock-deterministic fields
// (accuracy, bytes, weights) — two runs of the same config produce
// byte-identical ROUND lines, which is exactly what the multi-process
// equality and kill-and-resume CI checks diff.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/codec_spec.hpp"
#include "core/fl/coordinator.hpp"
#include "core/fl/federation.hpp"
#include "core/fl/trace.hpp"
#include "data/synthetic.hpp"

namespace {

using namespace fedsz;

struct Options {
  std::string codec = "fedsz:eb=rel:1e-2";
  std::size_t clients = 8;
  int rounds = 4;
  std::uint64_t seed = 42;
  std::size_t take = 0;  // 0 = clients * 64 (a fast default), see below
  std::string arch = "mobilenet_v2";
  std::string trace_path;
  bool resume = false;
  bool spawn_workers = true;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--codec SPEC] [--clients N] [--rounds N] [--seed S]\n"
      "          [--take N] [--arch NAME] [--trace FILE] [--resume]\n"
      "          [--no-spawn]\n",
      argv0);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--codec") {
      opt.codec = value();
    } else if (arg == "--clients") {
      opt.clients = std::strtoul(value(), nullptr, 10);
    } else if (arg == "--rounds") {
      opt.rounds = std::atoi(value());
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--take") {
      opt.take = std::strtoul(value(), nullptr, 10);
    } else if (arg == "--arch") {
      opt.arch = value();
    } else if (arg == "--trace") {
      opt.trace_path = value();
    } else if (arg == "--resume") {
      opt.resume = true;
    } else if (arg == "--no-spawn") {
      opt.spawn_workers = false;
    } else {
      usage(argv[0]);
    }
  }
  if (opt.take == 0) opt.take = opt.clients * 64;
  return opt;
}

/// The fedsz_edge_worker binary next to this one (same build directory).
std::string sibling_worker_path() {
  char buffer[4096];
  const ssize_t got = ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  if (got <= 0) return "fedsz_edge_worker";
  buffer[got] = '\0';
  std::string path(buffer);
  const std::size_t slash = path.rfind('/');
  if (slash == std::string::npos) return "fedsz_edge_worker";
  return path.substr(0, slash + 1) + "fedsz_edge_worker";
}

pid_t spawn_worker(const std::string& binary, const std::string& endpoint) {
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    std::exit(1);
  }
  if (pid == 0) {
    ::execl(binary.c_str(), binary.c_str(), "--connect", endpoint.c_str(),
            static_cast<char*>(nullptr));
    std::fprintf(stderr, "fedsz_campaign: exec %s: %s\n", binary.c_str(),
                 std::strerror(errno));
    ::_exit(127);
  }
  return pid;
}

void print_result(const core::FlRunResult& result) {
  for (const core::RoundRecord& r : result.rounds) {
    std::printf(
        "ROUND %d accuracy=%.9f bytes=%zu raw=%zu backhaul=%zu "
        "backhaul_raw=%zu participants=%zu eligible=%zu weight=%.17g "
        "virtual=%.17g\n",
        r.round, r.accuracy, r.bytes_sent, r.raw_bytes, r.backhaul_bytes,
        r.backhaul_raw_bytes, r.participants, r.eligible_clients,
        r.aggregate_weight, r.virtual_seconds);
  }
  // Campaign-total round count (a resumed run's result carries only the
  // replayed rounds, but its records keep their campaign round indices),
  // so an uninterrupted run and a resume print the same DONE line.
  const std::size_t rounds =
      result.rounds.empty()
          ? 0
          : static_cast<std::size_t>(result.rounds.back().round) + 1;
  std::printf("DONE rounds=%zu final_accuracy=%.9f virtual=%.17g\n", rounds,
              result.final_accuracy, result.total_virtual_seconds);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  try {
    const core::CodecSpec spec = core::parse_codec_spec(opt.codec);
    nn::ModelConfig model;
    model.arch = opt.arch;
    model.scale = nn::ModelScale::kTiny;
    core::FlRunConfig config;
    config.apply_comm_spec(spec);
    config.clients = opt.clients;
    config.rounds = opt.rounds;
    config.seed = opt.seed;
    config.eval_limit = 256;
    config.threads = std::max<std::size_t>(1, opt.clients);
    config.client.batch_size = 16;
    config.client.sgd.learning_rate = 0.05f;
    config.resume = opt.resume;

    const core::DatasetSpec dataset{"cifar10", 7, opt.take};
    auto [train, test] = data::make_dataset(dataset.name, dataset.seed);
    core::FlRunResult result;
    if (!config.transport.empty()) {
      core::FederatedRoot root(model, dataset, data::take(test, 256), config,
                               spec);
      std::printf("federation: listening on 127.0.0.1:%u, %zu edges\n",
                  root.port(), root.edge_count());
      std::fflush(stdout);
      std::vector<pid_t> workers;
      if (opt.spawn_workers) {
        const std::string binary = sibling_worker_path();
        const std::string endpoint =
            "127.0.0.1:" + std::to_string(root.port());
        for (std::size_t e = 0; e < root.edge_count(); ++e)
          workers.push_back(spawn_worker(binary, endpoint));
      }
      result = root.run();
      for (const pid_t pid : workers) {
        int status = 0;
        ::waitpid(pid, &status, 0);
      }
    } else {
      core::FlCoordinator coordinator(model, data::take(train, opt.take),
                                      data::take(test, 256), config,
                                      core::make_codec(spec));
      result = coordinator.run();
    }
    print_result(result);
    if (!opt.trace_path.empty()) core::write_trace(opt.trace_path, result);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fedsz_campaign: %s\n", error.what());
    return 1;
  }
  return 0;
}
