#!/usr/bin/env python3
"""Build and run the FedSZ round benchmark.

    python3 roundbench/run.py --workload codec_flat --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The first call configures and builds the
library and the benchmark (Release) into $CARGO_TARGET_DIR, or .bench_build
when that is unset; later calls rebuild only what changed. The benchmark's
own statistics test runs before every measurement. The benchmark binary's
stdout passes straight through: its last line is the JSON result. Build
output goes to stderr. The exit code is the binary's, or 1 when the build
or the statistics test fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_digest():
    """SHA-1 over the library sources, the top-level build file and the
    benchmark's own files: identifies the code measured when there is no
    git metadata."""
    digest = hashlib.sha1()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for base in (os.path.join(ROOT, "src"), HERE):
        for directory, subdirs, files in os.walk(base):
            subdirs[:] = sorted(d for d in subdirs if not d.startswith("."))
            paths.extend(os.path.join(directory, f) for f in sorted(files))
    for path in paths:
        if not os.path.isfile(path):
            continue
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "roundbench", "roundbench_stats_test"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("roundbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    test = subprocess.run([os.path.join(build_dir, "roundbench_stats_test")],
                          capture_output=True, text=True)
    if test.returncode != 0:
        sys.stderr.write(test.stdout + test.stderr)
        print("roundbench: statistics self-test failed", file=sys.stderr)
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["train_flat", "codec_flat", "tcp_hier"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    if not build(build_dir):
        return 1
    state_dir = os.path.join(build_dir, "state")
    spans_dir = os.path.join(build_dir, "spans")
    os.makedirs(state_dir, exist_ok=True)
    os.makedirs(spans_dir, exist_ok=True)
    command = [os.path.join(build_dir, "roundbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--state", state_dir]
    if args.trace == "1":
        command += ["--spans", os.path.join(
            spans_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    env = dict(os.environ, ROUNDBENCH_SOURCE_DIGEST=source_digest())
    sys.stdout.flush()
    return subprocess.run(command, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
