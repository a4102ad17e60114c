#include "host.hpp"

#include <sched.h>

#include <cstdlib>

namespace roundbench {

namespace {

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::string fingerprint_json(const std::string& workload, std::uint64_t seed,
                             std::size_t threads) {
  // The source digest is computed by run.py over the library and benchmark
  // sources; a bare binary run reports "unknown".
  const char* digest = std::getenv("ROUNDBENCH_SOURCE_DIGEST");
  // What `nproc` prints: the CPUs this process may run on.
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int nproc =
      sched_getaffinity(0, sizeof(cpus), &cpus) == 0 ? CPU_COUNT(&cpus) : 0;
  return "{\"nproc\": " + std::to_string(nproc) +
         ", \"compiler\": " + quoted(ROUNDBENCH_COMPILER) +
         ", \"build_type\": " + quoted(ROUNDBENCH_BUILD_TYPE) +
         ", \"flags\": " + quoted(ROUNDBENCH_FLAGS) +
         ", \"commit\": " + quoted(ROUNDBENCH_COMMIT) +
         ", \"source_digest\": " + quoted(digest ? digest : "unknown") +
         ", \"workload\": " + quoted(workload) +
         ", \"seed\": " + std::to_string(seed) +
         ", \"threads\": " + std::to_string(threads) + "}";
}

}  // namespace roundbench
