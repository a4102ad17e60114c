// Client-population bench: device-class mixes and diurnal availability
// driving per-round eligibility on the virtual clock, swept against the
// codec and topology axes. Each grid entry runs a short campaign with a
// population= preset (or none) over the flat star and a sharded tree and
// reports the virtual-clock-deterministic counters: uplink bytes, summed
// eligible/ineligible/participant counts, and virtual time.
//
//   bench_population [--clients N] [--rounds N] [--bandwidth MBPS]
//                    [--codec SPEC] [--seed N] [--threads N] [--json PATH]
//                    [--trace PATH] [--out PATH] [--smoke]
//
// --trace writes the LAST grid entry's full campaign trace (every round,
// client delivery, and shipped partial) as JSON via core/fl/trace.hpp.
//
// --smoke runs a CI-sized grid and then replays one diurnal hierarchical
// entry at 1 and 4 worker threads, FAILING (exit 1) if any per-round
// eligible/ineligible/participant count or byte total differs — the CI
// guard that eligibility draws ride the deterministic virtual clock, not
// wall-clock thread interleaving. compare_baselines.py additionally gates
// the *_bytes and *_count metrics exactly against the committed baseline
// at bench/baselines/BENCH_population.json.
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/codec_spec.hpp"
#include "core/fl/coordinator.hpp"
#include "core/fl/population.hpp"
#include "core/fl/trace.hpp"
#include "data/synthetic.hpp"

namespace {

using namespace fedsz;

struct PopulationRun {
  double virtual_seconds = 0.0;
  double final_accuracy = 0.0;
  std::size_t uplink_bytes = 0;      // client->parent traffic (all rounds)
  std::size_t eligible_count = 0;    // summed over rounds
  std::size_t ineligible_count = 0;  // summed over rounds
  std::size_t participants_count = 0;
};

core::FlRunResult run_campaign(std::size_t clients,
                               const std::string& population_spec,
                               std::size_t fanout, int rounds,
                               std::size_t samples_per_client,
                               std::size_t threads, double bandwidth_mbps,
                               std::uint64_t seed, core::UpdateCodecPtr codec) {
  nn::ModelConfig model;
  model.arch = "mobilenet_v2";
  model.scale = nn::ModelScale::kTiny;
  auto [train, test] = data::make_dataset("cifar10");
  core::FlRunConfig config;
  config.clients = clients;
  config.rounds = rounds;
  config.eval_limit = 32;
  config.threads = threads;
  config.seed = seed;
  config.network.bandwidth_mbps = bandwidth_mbps;
  config.client.batch_size = 1;
  config.evaluate_every_round = false;
  if (!population_spec.empty())
    config.population = core::parse_population_spec(population_spec);
  if (fanout > 0) {
    config.topology.mode = core::TopologyMode::kHier;
    config.topology.tiers = {fanout};
    config.topology.backhaul_spec = "fedsz:eb=rel:1e-3";
  }
  core::FlCoordinator coordinator(
      model, data::take(train, clients * samples_per_client),
      data::take(test, 32), config, std::move(codec));
  return coordinator.run();
}

PopulationRun summarize(const core::FlRunResult& result) {
  PopulationRun out;
  out.virtual_seconds = result.total_virtual_seconds;
  out.final_accuracy = result.final_accuracy;
  for (const core::RoundRecord& record : result.rounds) {
    out.uplink_bytes += record.bytes_sent;
    out.eligible_count += record.eligible_clients;
    out.ineligible_count += record.ineligible_clients;
    out.participants_count += record.participants;
  }
  return out;
}

std::string topology_label(std::size_t fanout) {
  return fanout > 0 ? "hier:" + std::to_string(fanout) : "flat";
}

/// Per-round equality on every virtual-clock-deterministic counter. Any
/// mismatch means eligibility or delivery leaked wall-clock scheduling.
bool rounds_identical(const core::FlRunResult& a, const core::FlRunResult& b) {
  if (a.rounds.size() != b.rounds.size()) return false;
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    const core::RoundRecord& x = a.rounds[r];
    const core::RoundRecord& y = b.rounds[r];
    if (x.eligible_clients != y.eligible_clients ||
        x.ineligible_clients != y.ineligible_clients ||
        x.participants != y.participants || x.bytes_sent != y.bytes_sent ||
        x.virtual_seconds != y.virtual_seconds)
      return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fedsz;
  const benchx::BenchOptions options = benchx::parse_bench_options(argc, argv);
  const bool full = benchx::full_grid() && !options.smoke;
  const std::uint64_t seed = options.seed_or(42);
  const std::size_t threads = options.threads_or(4);
  const double mbps =
      options.bandwidth_mbps > 0.0 ? options.bandwidth_mbps : 10.0;
  const int rounds = options.rounds > 0 ? options.rounds : 2;
  const std::size_t clients =
      options.clients > 0 ? options.clients : (full ? 64 : 24);
  auto uplink_codec = [&] {
    return options.codec.empty() ? core::make_fedsz_codec()
                                 : core::make_codec(options.codec);
  };
  util::JsonValue json = util::JsonValue::object();
  json.set("bench", "population")
      .set("bandwidth_mbps", mbps)
      .set("rounds", rounds)
      .set("clients", clients)
      .set("smoke", options.smoke)
      .set("codec", options.codec.empty() ? "fedsz" : options.codec);

  std::printf(
      "Client populations: device-class mixes and diurnal availability\n"
      "(tiny MobileNet-V2, %d round(s), %zu clients, population-owned "
      "links)\n\n",
      rounds, clients);

  util::JsonValue runs = util::JsonValue::array();
  benchx::Table table({"Population", "Topology", "Eligible", "Ineligible",
                       "Participants", "Uplink bytes", "Virtual (s)"});
  core::FlRunResult traced;  // the last grid entry's full result (--trace)
  auto record_run = [&](const std::string& population, std::size_t fanout) {
    core::FlRunResult result =
        run_campaign(clients, population, fanout, rounds,
                     /*samples_per_client=*/2, threads, mbps, seed,
                     uplink_codec());
    const PopulationRun run = summarize(result);
    const std::string pop_label = population.empty() ? "none" : population;
    table.add_row({pop_label, topology_label(fanout),
                   std::to_string(run.eligible_count),
                   std::to_string(run.ineligible_count),
                   std::to_string(run.participants_count),
                   benchx::fmt_bytes(run.uplink_bytes),
                   benchx::fmt(run.virtual_seconds, 2)});
    // Unique per grid entry — compare_baselines.py matches runs by name.
    runs.push(util::JsonValue::object()
                  .set("name", pop_label + "/" + topology_label(fanout))
                  .set("population", pop_label)
                  .set("topology", topology_label(fanout))
                  .set("eligible_count", run.eligible_count)
                  .set("ineligible_count", run.ineligible_count)
                  .set("participants_count", run.participants_count)
                  .set("uplink_bytes", run.uplink_bytes)
                  .set("virtual_seconds", run.virtual_seconds)
                  .set("final_accuracy", run.final_accuracy));
    if (!options.trace_path.empty()) traced = std::move(result);
  };

  const std::vector<std::string> populations =
      full ? std::vector<std::string>{"", "mixed:seed=7", "mobile:seed=7",
                                      "iot_fleet:seed=7",
                                      "mixed:period=30;jitter=0.5;seed=7",
                                      "mobile:avail=flat:0.6;seed=7"}
           : std::vector<std::string>{"", "mixed:seed=7",
                                      "iot_fleet:period=30;jitter=0.5;seed=7"};
  const std::vector<std::size_t> fanouts =
      full ? std::vector<std::size_t>{0, 8, 16} : std::vector<std::size_t>{0,
                                                                           4};
  for (const std::string& population : populations)
    for (const std::size_t fanout : fanouts) record_run(population, fanout);

  table.print();
  json.set("runs", std::move(runs));

  // Thread-count invariance guard: eligibility draws and mid-round delivery
  // ride the virtual clock, so a diurnal hierarchical campaign must produce
  // identical per-round counters at any worker-thread count.
  bool thread_invariant_ok = true;
  if (options.smoke) {
    const std::string guard_pop = "mixed:period=30;jitter=0.5;seed=7";
    const core::FlRunResult one =
        run_campaign(clients, guard_pop, 4, rounds, 2, /*threads=*/1, mbps,
                     seed, uplink_codec());
    const core::FlRunResult four =
        run_campaign(clients, guard_pop, 4, rounds, 2, /*threads=*/4, mbps,
                     seed, uplink_codec());
    thread_invariant_ok = rounds_identical(one, four);
    std::printf("\nthread-invariance guard (%s, hier:4, 1 vs 4 threads): %s\n",
                guard_pop.c_str(), thread_invariant_ok ? "ok" : "MISMATCH");
  }
  json.set("thread_invariant_ok", thread_invariant_ok);

  std::printf(
      "\nShape to check: 'none' keeps every client eligible every round;\n"
      "diurnal presets leave a seed-deterministic slice of the population\n"
      "offline (eligible + ineligible == clients each round), and the\n"
      "participant/byte counters shrink with them. All counts are virtual-\n"
      "clock deterministic — the committed baseline gates them exactly.\n");

  if (!options.json_path.empty()) {
    util::write_json(options.json_path, json);
    std::printf("\nwrote %s\n", options.json_path.c_str());
  }
  if (!options.trace_path.empty()) {
    core::write_trace(options.trace_path, traced);
    std::printf("\nwrote %s\n", options.trace_path.c_str());
  }
  if (!thread_invariant_ok) {
    std::fprintf(stderr,
                 "FAIL: eligibility/delivery counters changed with the "
                 "worker-thread count\n");
    return 1;
  }
  return 0;
}
