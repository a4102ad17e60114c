// Round benchmark: runs one workload for a fixed wall budget and prints its
// metrics, the last stdout line being one JSON object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
//
//   roundbench --workload train_flat|codec_flat|tcp_hier --seed N
//              --seconds S --trace 0|1 [--spans PATH] [--state DIR]
//
// --trace 0 measures end to end with nothing wrapped: first several set-ups
// alone (setup_s: inputs from the seed, model replicas, coordinator or root,
// TCP listen/connect), then repetitions that each set up and make one run
// call (round_s: run-call wall time per round). --trace 1 replays one round layer by layer,
// then alternates untraced and traced repetitions; the traced ones wrap the
// uplink codec (flat workloads) or both ends of every socket (tcp_hier).
// Either mode checks its outputs; a failed check makes the exit code 1.
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "host.hpp"
#include "replay.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace roundbench {
namespace {

constexpr int kMinReps = 3;          // full repetitions per untraced run
constexpr int kMaxReps = 200;
// Set-up-only samples take kSetupShare of a run's seconds, in kSetupChunks
// bursts: one before the first repetition and one after each of the next
// ones. Spreading them over the run lets the median span the host's speed
// phases, which on a shared 4-vCPU box last from a fraction of a second to
// several seconds.
constexpr double kSetupShare = 0.15;
constexpr int kSetupChunks = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string spans;  // traced run: where the spans go
  std::string state;  // directory for the cross-run determinism record
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "roundbench: %s\nusage: roundbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans PATH] [--state DIR]\n",
               problem.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int k = 1; k < argc; ++k) {
    const std::string flag = argv[k];
    if (k + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++k];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) usage("bad --seed " + value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || args.seconds < 1) usage("bad --seconds " + value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1" ? 1 : 0;
    } else if (flag == "--spans") {
      args.spans = value;
    } else if (flag == "--state") {
      args.state = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || !have_seed || args.seconds == 0 ||
      args.trace < 0)
    usage("--workload, --seed, --seconds and --trace are required");
  return args;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The outputs a seed fixes: every repetition of a seed must reproduce them
/// bit for bit.
struct Deterministic {
  double uplink_bytes_per_round = 0.0;
  double compression_ratio = 0.0;
  double final_accuracy = 0.0;
  double virtual_round_s = 0.0;

  std::string text() const {
    char buffer[160];
    std::snprintf(buffer, sizeof buffer, "%.17g %.17g %.17g %.17g",
                  uplink_bytes_per_round, compression_ratio, final_accuracy,
                  virtual_round_s);
    return buffer;
  }
};

Deterministic deterministic(const core::FlRunResult& result) {
  std::size_t sent = 0;
  std::size_t raw = 0;
  for (const core::RoundRecord& r : result.rounds) {
    sent += r.bytes_sent;
    raw += r.raw_bytes;
  }
  const double rounds =
      static_cast<double>(std::max<std::size_t>(1, result.rounds.size()));
  Deterministic d;
  d.uplink_bytes_per_round = static_cast<double>(sent) / rounds;
  d.compression_ratio =
      sent > 0 ? static_cast<double>(raw) / static_cast<double>(sent) : 0.0;
  d.final_accuracy = result.final_accuracy;
  d.virtual_round_s = result.total_virtual_seconds / rounds;
  return d;
}

/// Attempts, failures and the checks behind `correct`.
class Outcome {
 public:
  /// Count one repetition's deliveries: every dispatched update and every
  /// shipped partial is an attempt; anything not aggregated is a failure.
  void count_run(const core::FlRunResult& result) {
    ++attempted_;
    for (const core::RoundRecord& r : result.rounds) {
      for (const core::ClientTraceEntry& c : r.clients) {
        ++attempted_;
        if (c.status != core::DeliveryStatus::kAggregated) ++failed_;
      }
      for (const core::EdgeTraceEntry& e : r.edges) {
        ++attempted_;
        if (e.status != core::DeliveryStatus::kAggregated) ++failed_;
      }
    }
  }
  void run_failed(const std::string& what) {
    ++attempted_;
    fail("run failed: " + what);
  }
  void check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) fail("check failed: " + what);
  }
  bool correct() const { return problems_.empty(); }
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  double delivered_share() const {
    return attempted_ > 0 ? 1.0 - static_cast<double>(failed_) /
                                      static_cast<double>(attempted_)
                          : 0.0;
  }

 private:
  void fail(const std::string& what) {
    ++failed_;
    problems_.push_back(what);
    std::printf("FAIL %s\n", what.c_str());
    std::fflush(stdout);
  }
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> problems_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string result_json(const Outcome& outcome,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += outcome.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(outcome.attempted());
  out += ", \"failed\": " + std::to_string(outcome.failed());
  out += ", \"metrics\": {";
  for (std::size_t k = 0; k < metrics.size(); ++k) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[k].value);
    out += (k ? ", \"" : "\"") + metrics[k].name + "\": {\"value\": " +
           value + ", \"unit\": \"" + metrics[k].unit + "\"}";
  }
  return out + "}}";
}

/// Median plus quartiles and sample count, for the human-readable lines.
void print_samples(const std::string& name, const std::vector<double>& v,
                   const std::string& unit) {
  if (v.empty()) return;
  std::printf("  %-26s median %.6g %s  n=%zu", name.c_str(), median(v),
              unit.c_str(), v.size());
  if (v.size() >= 2) {
    const Quartiles q = quartiles(v);
    std::printf("  q1 %.6g  q3 %.6g", q.q1, q.q3);
  }
  for (const double p : {99.0, 90.0}) {
    if (const auto tail = supported_percentile(v, p)) {
      std::printf("  p%.0f %.6g", p, *tail);
      break;
    }
  }
  std::printf("\n");
}

/// Identity of the running binary, so a determinism record left by an
/// older build is replaced instead of compared.
std::string binary_identity() {
  struct stat info {};
  if (stat("/proc/self/exe", &info) != 0) return "unknown";
  return std::to_string(info.st_size) + ":" + std::to_string(info.st_mtime);
}

/// Cross-run check (a): the first run of a seed records its deterministic
/// outputs under `dir`; every later run of that seed with the same binary,
/// traced or not, must reproduce them exactly.
void check_across_runs(const std::string& dir, const Workload& workload,
                       std::uint64_t seed, const Deterministic& d,
                       Outcome& outcome) {
  if (dir.empty()) return;
  const std::string path =
      dir + "/" + workload.name + "-seed" + std::to_string(seed) + ".det";
  const std::string identity = binary_identity();
  std::ifstream in(path);
  std::string stored_identity;
  std::string stored_values;
  if (in && std::getline(in, stored_identity) &&
      std::getline(in, stored_values) && stored_identity == identity) {
    outcome.check(stored_values == d.text(),
                  "deterministic outputs differ from an earlier run of seed " +
                      std::to_string(seed) + " (" + stored_values + " vs " +
                      d.text() + ")");
    return;
  }
  std::ofstream out(path, std::ios::trunc);
  out << identity << "\n" << d.text() << "\n";
}

/// Check (c): every virtual-clock-deterministic round field of the TCP run
/// equals the in-process FlCoordinator run of the same config.
void check_tcp_equals_in_process(const core::FlRunResult& tcp,
                                 const core::FlRunResult& local,
                                 Outcome& outcome) {
  std::string diff;
  if (tcp.rounds.size() != local.rounds.size()) diff = "round count";
  for (std::size_t r = 0; diff.empty() && r < tcp.rounds.size(); ++r) {
    const core::RoundRecord& a = tcp.rounds[r];
    const core::RoundRecord& b = local.rounds[r];
    const std::string at = " (round " + std::to_string(r) + ")";
    if (a.accuracy != b.accuracy) diff = "accuracy" + at;
    else if (a.bytes_sent != b.bytes_sent) diff = "bytes_sent" + at;
    else if (a.raw_bytes != b.raw_bytes) diff = "raw_bytes" + at;
    else if (a.participants != b.participants) diff = "participants" + at;
    else if (a.virtual_seconds != b.virtual_seconds) diff = "virtual_seconds" + at;
    else if (a.comm_seconds != b.comm_seconds) diff = "comm_seconds" + at;
    else if (a.aggregate_weight != b.aggregate_weight) diff = "aggregate_weight" + at;
    else if (a.backhaul_bytes != b.backhaul_bytes) diff = "backhaul_bytes" + at;
    else if (a.mean_loss != b.mean_loss) diff = "mean_loss" + at;
    else if (a.clients.size() != b.clients.size()) diff = "client traces" + at;
    for (std::size_t k = 0; diff.empty() && k < a.clients.size(); ++k)
      if (a.clients[k].client != b.clients[k].client ||
          a.clients[k].payload_bytes != b.clients[k].payload_bytes ||
          a.clients[k].arrival_seconds != b.clients[k].arrival_seconds ||
          a.clients[k].weight != b.clients[k].weight)
        diff = "client trace " + std::to_string(k) + at;
  }
  if (diff.empty() && tcp.final_accuracy != local.final_accuracy)
    diff = "final_accuracy";
  if (diff.empty() && tcp.total_virtual_seconds != local.total_virtual_seconds)
    diff = "total_virtual_seconds";
  outcome.check(diff.empty(),
                "tcp_hier differs from the in-process run: " + diff);
}

/// One repetition's measurements.
struct Rep {
  double round_s = 0.0;
  double cpu_per_round_s = 0.0;
  core::FlRunResult result;
};

/// Set up and run once; nullopt (and a recorded failure) when it threw.
std::optional<Rep> run_rep(const Workload& workload, std::uint64_t seed,
                           const Hooks& hooks, Outcome& outcome) {
  try {
    Rep rep;
    const Inputs inputs = make_inputs(workload, seed);
    std::unique_ptr<Session> session = setup(workload, inputs, hooks);
    RunOutput out = session->run();
    session.reset();
    rep.round_s = out.wall_seconds / workload.rounds;
    rep.cpu_per_round_s = out.cpu_seconds / workload.rounds;
    rep.result = std::move(out.result);
    outcome.count_run(rep.result);
    return rep;
  } catch (const std::exception& error) {
    outcome.run_failed(error.what());
    return std::nullopt;
  }
}

/// Set-up only (no run call): set-up samples are cheap, and one set-up per
/// repetition would leave too few for a stable median.
double setup_only(const Workload& workload, std::uint64_t seed) {
  const double t0 = clock_seconds();
  const Inputs inputs = make_inputs(workload, seed);
  std::unique_ptr<Session> session = setup(workload, inputs);
  const double seconds = clock_seconds() - t0;
  session.reset();  // an unrun TCP session's workers see EOF and exit
  return seconds;
}

/// Makespan of `work` items dispatched in order onto `workers` identical
/// workers, each item going to the earliest-free worker.
double makespan(const std::vector<double>& work, std::size_t workers) {
  std::vector<double> busy(std::max<std::size_t>(1, workers), 0.0);
  for (const double w : work)
    *std::min_element(busy.begin(), busy.end()) += w;
  return *std::max_element(busy.begin(), busy.end());
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

int run_untraced(const Workload& workload, const Args& args) {
  Outcome outcome;
  std::vector<double> setup_s, round_s, cpu_s;
  std::optional<Deterministic> first;
  std::optional<core::FlRunResult> first_result;
  const double deadline = clock_seconds() + args.seconds;
  // Set-up samples are taken alone, never as part of a repetition, so every
  // sample measures the same thing whatever the run's repetition count. The
  // first set-up of a burst is a warm-up and is not kept: it alone pays for
  // the heap the previous run call handed back to the system.
  int setup_chunks = 0;
  auto sample_setups = [&] {
    const double chunk_start = clock_seconds();
    try {
      setup_only(workload, args.seed);
      do {
        setup_s.push_back(setup_only(workload, args.seed));
      } while (clock_seconds() - chunk_start <
               kSetupShare * args.seconds / kSetupChunks);
    } catch (const std::exception& error) {
      outcome.run_failed(std::string("set-up threw: ") + error.what());
    }
    ++setup_chunks;
  };
  sample_setups();
  for (int reps = 0; reps < kMaxReps && outcome.correct();) {
    const double start = clock_seconds();
    if (reps > 0 && setup_chunks < kSetupChunks) sample_setups();
    std::optional<Rep> rep = run_rep(workload, args.seed, {}, outcome);
    ++reps;
    if (!rep) break;  // a failing configuration fails every repetition
    round_s.push_back(rep->round_s);
    cpu_s.push_back(rep->cpu_per_round_s);
    const Deterministic d = deterministic(rep->result);
    if (!first) {
      first = d;
      first_result = std::move(rep->result);
    } else {
      outcome.check(d.text() == first->text(),
                    "repetition " + std::to_string(reps) +
                        " changed the deterministic outputs (" + d.text() +
                        " vs " + first->text() + ")");
    }
    const double took = clock_seconds() - start;
    if (reps >= kMinReps && clock_seconds() + took > deadline) break;
  }
  const double rss = peak_rss_mb();

  if (first_result && workload.tcp) {
    try {
      check_tcp_equals_in_process(
          *first_result,
          run_in_process(workload, make_inputs(workload, args.seed)),
          outcome);
    } catch (const std::exception& error) {
      outcome.check(false, std::string("in-process reference run threw: ") +
                               error.what());
    }
  }
  if (first) check_across_runs(args.state, workload, args.seed, *first, outcome);

  std::printf("end-to-end (%zu repetitions, %d round(s) each):\n",
              round_s.size(), workload.rounds);
  print_samples("setup_s", setup_s, "s");
  print_samples("round_s", round_s, "s");
  print_samples("cpu_per_round_s", cpu_s, "s");
  std::vector<Metric> metrics;
  if (first && !setup_s.empty()) {
    std::printf("  final_accuracy             %.6g (deterministic)\n",
                first->final_accuracy);
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"round_s", median(round_s), "s"},
        {"cpu_per_round_s", median(cpu_s), "s"},
        {"peak_rss_mb", rss, "MB"},
        {"uplink_bytes_per_round", first->uplink_bytes_per_round, "B"},
        {"compression_ratio", first->compression_ratio, "x"},
        {"virtual_round_s", first->virtual_round_s, "s"},
        {"delivered_share", outcome.delivered_share(), "ratio"},
    };
  }
  std::printf("%s\n", result_json(outcome, metrics).c_str());
  return outcome.correct() && first ? 0 : 1;
}

int run_traced(const Workload& workload, const Args& args) {
  Outcome outcome;
  Tracer tracer;
  const double deadline = clock_seconds() + args.seconds;
  const Inputs inputs = make_inputs(workload, args.seed);
  const double rounds = workload.rounds;

  // ---- one round replayed layer by layer ----
  const ReplayTimes replay = replay_round(inputs, tracer);
  outcome.check(replay.violations.empty(),
                "replayed updates outside the error bound: " +
                    (replay.violations.empty() ? std::string()
                                               : replay.violations.front()));

  // ---- live repetitions, untraced and traced alternately ----
  std::vector<double> untraced_round_s, traced_round_s;
  CodecCalls codec_calls;
  WireTotals wire;
  double root_wait_s = 0.0;
  std::optional<Deterministic> first;
  std::optional<core::FlRunResult> first_result;
  std::size_t traced_reps = 0;
  // At least one untraced and one traced repetition, whatever the budget.
  for (int reps = 0; reps < kMaxReps; ++reps) {
    const bool traced = reps % 2 == 1;
    const double start = clock_seconds();
    Hooks hooks;
    std::shared_ptr<TracedCodec> codec;
    auto ledger = std::make_shared<WireLedger>();
    std::uint32_t run_span = 0;
    if (traced) {
      run_span = tracer.open("run", 0, -1);
      if (workload.tcp) {
        hooks.wrap_stream = [&tracer, ledger, run_span](
                                net::StreamPtr inner, bool root_side,
                                std::size_t edge) -> net::StreamPtr {
          return std::make_shared<TracedStream>(std::move(inner), tracer,
                                                *ledger, run_span, root_side,
                                                edge);
        };
      } else {
        hooks.wrap_codec = [&](core::UpdateCodecPtr inner) {
          codec = std::make_shared<TracedCodec>(
              std::move(inner), tracer, run_span, workload.clients,
              inputs.spec.bound.value, inputs.spec.lossy_threshold);
          return codec;
        };
      }
    }
    std::optional<Rep> rep = run_rep(workload, args.seed, hooks, outcome);
    if (traced) tracer.close(run_span);
    if (!rep) break;
    const Deterministic d = deterministic(rep->result);
    if (!first) {
      first = d;
      first_result = std::move(rep->result);
    } else {
      outcome.check(d.text() == first->text(),
                    std::string(traced ? "traced" : "untraced") +
                        " repetition changed the deterministic outputs (" +
                        d.text() + " vs " + first->text() + ")");
    }
    if (!traced) {
      untraced_round_s.push_back(rep->round_s);
    } else {
      ++traced_reps;
      traced_round_s.push_back(rep->round_s);
      if (codec) {
        const CodecCalls c = codec->calls();
        codec_calls.encode_seconds.insert(codec_calls.encode_seconds.end(),
                                          c.encode_seconds.begin(),
                                          c.encode_seconds.end());
        codec_calls.decode_seconds.insert(codec_calls.decode_seconds.end(),
                                          c.decode_seconds.begin(),
                                          c.decode_seconds.end());
        codec_calls.encode_raw_bytes += c.encode_raw_bytes;
        codec_calls.decode_raw_bytes += c.decode_raw_bytes;
        codec_calls.checked += c.checked;
        codec_calls.violations.insert(codec_calls.violations.end(),
                                      c.violations.begin(),
                                      c.violations.end());
      }
      if (workload.tcp) {
        const WireTotals w = ledger->totals();
        wire.frames += w.frames;
        wire.bytes += w.bytes;
        wire.heartbeat_frames += w.heartbeat_frames;
        wire.write_seconds += w.write_seconds;
        wire.root_read_seconds += w.root_read_seconds;
        for (std::size_t r = 0; r < w.round_open.size(); ++r)
          root_wait_s += w.partial_done[r] - w.round_open[r];
      }
    }
    const double took = clock_seconds() - start;
    if (traced_reps > 0 && clock_seconds() + took > deadline) break;
  }

  if (first_result && !first_result->rounds.empty())
    outcome.check(replay.uplink_bytes == first_result->rounds[0].bytes_sent,
                  "replayed round 0 sent " +
                      std::to_string(replay.uplink_bytes) +
                      " uplink bytes, the live run " +
                      std::to_string(first_result->rounds[0].bytes_sent));
  if (!workload.tcp && traced_reps > 0) {
    outcome.check(codec_calls.checked > 0 &&
                      codec_calls.checked == codec_calls.encode_seconds.size(),
                  "not every live encoded update was decoded and checked");
    outcome.check(codec_calls.violations.empty(),
                  "live decoded updates outside the error bound: " +
                      (codec_calls.violations.empty()
                           ? std::string()
                           : codec_calls.violations.front()));
  }
  if (first) check_across_runs(args.state, workload, args.seed, *first, outcome);

  // ---- per-layer metrics ----
  const double live_rounds = static_cast<double>(traced_reps) * rounds;
  const double per_live_round = live_rounds > 0 ? 1.0 / live_rounds : 0.0;
  const double evals_per_round = workload.evaluate_every_round ? 1.0 : 1.0 / rounds;
  const double eval_s = replay.eval * evals_per_round;
  const double train_s = sum(replay.train);
  const double busy_total = train_s + sum(replay.encode) + sum(replay.decode) +
                            replay.fold + replay.finalize + eval_s +
                            replay.edge_fold + replay.partial_encode +
                            replay.partial_decode + replay.merge;
  const double codec_share =
      busy_total > 0 ? (sum(replay.encode) + sum(replay.decode)) / busy_total
                     : 0.0;

  // Codec calls: live (wrapped codec) on flat workloads; the TCP workers
  // build their codecs from the manifest, so there the replay stands in.
  std::vector<double> enc = codec_calls.encode_seconds;
  std::vector<double> dec = codec_calls.decode_seconds;
  double enc_rounds = live_rounds;
  std::size_t enc_bytes = codec_calls.encode_raw_bytes;
  std::size_t dec_bytes = codec_calls.decode_raw_bytes;
  if (workload.tcp) {
    enc = replay.encode;
    dec = replay.decode;
    enc_rounds = 1.0;
    enc_bytes = dec_bytes = replay.update_bytes * replay.encode.size();
  }
  auto ms = [](const std::optional<double>& v) { return v ? *v * 1e3 : 0.0; };
  auto mb_s = [](std::size_t bytes, double seconds) {
    return seconds > 0 ? static_cast<double>(bytes) / 1e6 / seconds : 0.0;
  };
  const double enc_per_round = enc_rounds > 0 ? 1.0 / enc_rounds : 0.0;

  double serial_s = 0.0;
  double coordinator_overhead = 0.0;
  double federation_overhead = 0.0;
  const double untraced = untraced_round_s.empty() ? 0.0 : median(untraced_round_s);
  const double traced = traced_round_s.empty() ? 0.0 : median(traced_round_s);
  if (workload.tcp) {
    serial_s = replay.partial_decode + replay.merge + replay.finalize + eval_s;
    const double slowest_edge =
        replay.edge_work.empty()
            ? 0.0
            : *std::max_element(replay.edge_work.begin(), replay.edge_work.end());
    federation_overhead = untraced - (slowest_edge + serial_s);
  } else {
    serial_s = sum(replay.decode) + replay.fold + replay.finalize + eval_s;
    std::vector<double> client_work(replay.train.size());
    for (std::size_t i = 0; i < client_work.size(); ++i)
      client_work[i] = replay.train[i] + replay.encode[i];
    coordinator_overhead =
        untraced - (makespan(client_work, kThreads) + serial_s);
  }
  const double edges = static_cast<double>(
      std::max<std::size_t>(1, replay.edge_work.size()));
  const double traced_wall = sum(traced_round_s) * rounds;

  const std::vector<Metric> metrics = {
      {"nn.train.busy_s", train_s, "s"},
      {"nn.train.samples_per_s",
       train_s > 0 ? static_cast<double>(replay.train_samples) / train_s : 0.0,
       "1/s"},
      {"nn.eval.busy_s", eval_s, "s"},
      {"nn.eval.samples_per_s",
       replay.eval > 0 ? static_cast<double>(replay.eval_samples) / replay.eval
                       : 0.0,
       "1/s"},
      {"codec.encode.calls", static_cast<double>(enc.size()) * enc_per_round,
       "count"},
      {"codec.encode.busy_s", sum(enc) * enc_per_round, "s"},
      {"codec.encode.mb_s", mb_s(enc_bytes, sum(enc)), "MB/s"},
      {"codec.encode.p50_ms", ms(supported_percentile(enc, 50)), "ms"},
      {"codec.encode.p90_ms", ms(supported_percentile(enc, 90)), "ms"},
      {"codec.encode.allocs_per_call", replay.encode_allocs_per_call, "count"},
      {"codec.decode.calls", static_cast<double>(dec.size()) * enc_per_round,
       "count"},
      {"codec.decode.busy_s", sum(dec) * enc_per_round, "s"},
      {"codec.decode.mb_s", mb_s(dec_bytes, sum(dec)), "MB/s"},
      {"codec.decode.p50_ms", ms(supported_percentile(dec, 50)), "ms"},
      {"codec.share", codec_share, "ratio"},
      {"lossy.compress_mb_s", replay.lossy_compress_mb_s, "MB/s"},
      {"lossy.decompress_mb_s", replay.lossy_decompress_mb_s, "MB/s"},
      {"lossless.compress_mb_s", replay.lossless_compress_mb_s, "MB/s"},
      {"lossless.decompress_mb_s", replay.lossless_decompress_mb_s, "MB/s"},
      {"aggregator.fold.calls", static_cast<double>(replay.folds), "count"},
      {"aggregator.fold.busy_s", replay.fold, "s"},
      {"aggregator.finalize.busy_s", replay.finalize, "s"},
      {"topology.edge_fold.busy_s", replay.edge_fold, "s"},
      {"topology.partial_encode.busy_s", replay.partial_encode, "s"},
      {"topology.partial_decode.busy_s", replay.partial_decode, "s"},
      {"federation.merge.busy_s", replay.merge, "s"},
      {"wire.bytes_per_round", static_cast<double>(wire.bytes) * per_live_round,
       "B"},
      {"wire.frames_per_round",
       static_cast<double>(wire.frames) * per_live_round, "count"},
      {"wire.heartbeat_frames_per_round",
       static_cast<double>(wire.heartbeat_frames) * per_live_round, "count"},
      {"transport.write_busy_s", wire.write_seconds * per_live_round, "s"},
      {"transport.read_wait_s",
       wire.root_read_seconds * per_live_round / edges, "s"},
      {"federation.root_wait_share",
       traced_wall > 0 && workload.tcp ? root_wait_s / traced_wall : 0.0,
       "ratio"},
      {"coordinator.serial_s", serial_s, "s"},
      {"coordinator.overhead_s", coordinator_overhead, "s"},
      {"federation.overhead_s", federation_overhead, "s"},
      {"busy.total_s", busy_total, "s"},
      {"trace.overhead_s", traced - untraced, "s"},
      {"fl.final_accuracy", first ? first->final_accuracy : 0.0, "ratio"},
  };

  std::printf("traced run: replayed 1 round; %zu untraced + %zu traced "
              "repetitions of %d round(s)\n",
              untraced_round_s.size(), traced_reps, workload.rounds);
  print_samples("round_s untraced", untraced_round_s, "s");
  print_samples("round_s traced", traced_round_s, "s");
  print_samples("codec.encode call", enc, "s");
  print_samples("codec.decode call", dec, "s");
  std::printf("self time per layer (seconds, every span of this run):\n");
  for (const auto& [name, seconds] : tracer.self_seconds())
    std::printf("  %-30s %.6f\n", name.c_str(), seconds);
  std::printf("tracing overhead: %.6f s per round (traced %.6f vs untraced "
              "%.6f)\n",
              traced - untraced, traced, untraced);
  if (!args.spans.empty() && !tracer.write_json(args.spans))
    std::printf("warning: could not write spans to %s\n", args.spans.c_str());
  std::printf("%s\n", result_json(outcome, metrics).c_str());
  return outcome.correct() && first ? 0 : 1;
}

}  // namespace
}  // namespace roundbench

int main(int argc, char** argv) {
  using namespace roundbench;
  const Args args = parse_args(argc, argv);
  const Workload* workload = nullptr;
  try {
    workload = &find_workload(args.workload);
  } catch (const std::exception& error) {
    usage(error.what());
  }
  std::printf("host %s\n",
              fingerprint_json(workload->name, args.seed, kThreads)
                  .c_str());
  std::fflush(stdout);
  try {
    return args.trace == 1 ? run_traced(*workload, args)
                           : run_untraced(*workload, args);
  } catch (const std::exception& error) {
    std::printf("FAIL benchmark aborted: %s\n", error.what());
    return 1;
  }
}
