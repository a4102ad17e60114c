// Host and build fingerprint stamped on every benchmark result, so a
// number can always be traced back to the machine, compiler, flags,
// source revision, seed and thread count that produced it.
#pragma once

#include <cstdint>
#include <string>

namespace roundbench {

/// One-line JSON object: nproc, compiler, build type and flags, commit,
/// source digest, workload, seed, threads.
std::string fingerprint_json(const std::string& workload, std::uint64_t seed,
                             std::size_t threads);

}  // namespace roundbench
