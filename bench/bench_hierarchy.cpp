// Hierarchical-topology bench: multi-tier sharded aggregation vs the flat
// star, past where the paper's Fig. 9 stops. Clients are sharded under
// tier-1 edges (topology=hier:<N>[x<M>...]); every interior node
// stream-folds its children, re-encodes the weight-carrying partial mean
// through its tier's backhaul codec, and ships it over a per-node backhaul
// link drawn from the two_tier distribution. The sweep is clients x tier
// shape x backhaul bound; the numbers to watch are root-link ingress bytes
// (O(top-tier nodes), not O(clients) — and a second telescoping step down
// for depth-2 trees) and per-node peak decoded updates (streaming keeps
// every aggregation point at 1 <= its fan-in regardless of population).
//
//   bench_hierarchy [--clients N] [--rounds N] [--bandwidth MBPS]
//                   [--codec SPEC] [--seed N] [--threads N] [--json PATH]
//                   [--trace PATH] [--out PATH] [--smoke]
//
// --trace writes the LAST grid entry's full campaign trace (every round,
// client delivery, and shipped partial) as JSON via core/fl/trace.hpp.
//
// --smoke runs one 1024-client fanout-32 round plus a depth-2 32x8 round
// and FAILS (exit 1) if any aggregation point ever held more than its
// fan-in's worth of decoded updates — the CI guard for the O(fanout)
// memory claim at every depth.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/codec_spec.hpp"
#include "core/fl/coordinator.hpp"
#include "core/fl/trace.hpp"
#include "data/synthetic.hpp"

namespace {

using namespace fedsz;

struct HierarchyRun {
  double virtual_seconds = 0.0;
  double final_accuracy = 0.0;
  std::size_t uplink_bytes = 0;      // client->edge traffic (all rounds)
  std::size_t root_bytes = 0;        // TOP tier->root (hier) or uplink (flat)
  std::size_t backhaul_bytes = 0;    // merged partials, every tier
  double backhaul_ratio = 0.0;       // raw/compressed over the partials
  std::size_t edges = 0;             // partials shipped per round, all tiers
  std::size_t peak_nodes = 0;        // entries in peak_decoded_per_node
  std::size_t max_peak = 0;          // worst node's live decoded payloads
};

HierarchyRun run_hierarchy(std::size_t clients,
                           const std::vector<std::size_t>& tiers,
                           const std::string& backhaul_spec, int rounds,
                           std::size_t samples_per_client,
                           std::size_t threads, double bandwidth_mbps,
                           std::uint64_t seed, core::UpdateCodecPtr codec,
                           core::FlRunResult* full_result = nullptr) {
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
  if (!tiers.empty()) {
    config.topology.mode = core::TopologyMode::kHier;
    config.topology.tiers = tiers;
    config.topology.backhaul_spec = backhaul_spec;
    // Per-edge backhaul links from the two_tier distribution: a quarter of
    // the edges sit on datacenter fiber, the rest on metro uplinks.
    net::HeterogeneousNetworkConfig backhaul;
    backhaul.distribution = net::LinkDistribution::kTwoTier;
    backhaul.two_tier_fast_fraction = 0.25;
    backhaul.two_tier_fast_mbps = 1000.0;
    backhaul.two_tier_slow_mbps = 100.0;
    backhaul.seed = seed ^ 0xBAC4AA1ull;
    config.topology.backhaul_heterogeneous = backhaul;
  }
  core::FlCoordinator coordinator(
      model, data::take(train, clients * samples_per_client),
      data::take(test, 32), config, std::move(codec));
  core::FlRunResult result = coordinator.run();

  HierarchyRun out;
  out.virtual_seconds = result.total_virtual_seconds;
  out.final_accuracy = result.final_accuracy;
  out.peak_nodes = result.peak_decoded_per_node.size();
  for (const std::size_t p : result.peak_decoded_per_node)
    out.max_peak = std::max(out.max_peak, p);
  std::size_t backhaul_raw = 0;
  for (const core::RoundRecord& record : result.rounds) {
    out.uplink_bytes += record.bytes_sent;
    out.edges = std::max(out.edges, record.edges.size());
    if (!tiers.empty()) {
      // Only the TOP tier's partials land on the root link; lower tiers
      // terminate at interior parents.
      out.root_bytes += record.backhaul_tier_bytes.back();
      out.backhaul_bytes += record.backhaul_bytes;
      backhaul_raw += record.backhaul_raw_bytes;
    } else {
      out.root_bytes += record.bytes_sent;  // flat: clients hit the root
      out.backhaul_bytes += record.bytes_sent;
    }
  }
  out.backhaul_ratio =
      out.backhaul_bytes > 0 && !tiers.empty()
          ? static_cast<double>(backhaul_raw) /
                static_cast<double>(out.backhaul_bytes)
          : 1.0;
  if (full_result) *full_result = std::move(result);
  return out;
}

std::string tiers_label(const std::vector<std::size_t>& tiers) {
  if (tiers.empty()) return "flat";
  std::string label = "hier:";
  for (std::size_t l = 0; l < tiers.size(); ++l)
    label += (l ? "x" : "") + std::to_string(tiers[l]);
  return label;
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
  const int rounds = options.rounds > 0 ? options.rounds : 1;
  auto uplink_codec = [&] {
    return options.codec.empty() ? core::make_fedsz_codec()
                                 : core::make_codec(options.codec);
  };
  util::JsonValue json = util::JsonValue::object();
  json.set("bench", "hierarchy")
      .set("bandwidth_mbps", mbps)
      .set("rounds", rounds)
      .set("smoke", options.smoke)
      .set("codec", options.codec.empty() ? "fedsz" : options.codec);

  std::printf(
      "Hierarchical topology: sharded edge aggregation vs the flat star\n"
      "(tiny MobileNet-V2, per-edge two_tier backhaul, slow tier @ 100 "
      "Mbps)\n\n");

  bool peak_ok = true;
  util::JsonValue runs = util::JsonValue::array();
  benchx::Table table({"Clients", "Topology", "Backhaul", "Edges",
                       "Uplink bytes", "Root ingress", "Max peak/node",
                       "Virtual (s)"});
  core::FlRunResult traced;  // the last grid entry's full result (--trace)
  auto record_run = [&](std::size_t clients,
                        const std::vector<std::size_t>& tiers,
                        const std::string& backhaul,
                        std::size_t samples_per_client) {
    const HierarchyRun run = run_hierarchy(
        clients, tiers, backhaul, rounds, samples_per_client, threads, mbps,
        seed, uplink_codec(),
        options.trace_path.empty() ? nullptr : &traced);
    // Streaming keeps every aggregation point at one live decoded payload,
    // so the worst tier's fan-in bounds every node with room to spare.
    const std::size_t bound =
        tiers.empty() ? clients
                      : *std::max_element(tiers.begin(), tiers.end());
    if (run.max_peak > bound) peak_ok = false;
    table.add_row({std::to_string(clients), tiers_label(tiers),
                   backhaul.empty() ? "identity" : backhaul,
                   std::to_string(run.edges),
                   benchx::fmt_bytes(run.uplink_bytes),
                   benchx::fmt_bytes(run.root_bytes),
                   std::to_string(run.max_peak),
                   benchx::fmt(run.virtual_seconds, 2)});
    // Unique per grid entry — compare_baselines.py matches runs by name.
    const std::string run_name = std::to_string(clients) + "c/" +
                                 tiers_label(tiers) + "/" +
                                 (backhaul.empty() ? "identity" : backhaul);
    runs.push(util::JsonValue::object()
                  .set("name", run_name)
                  .set("clients", clients)
                  .set("topology", tiers_label(tiers))
                  .set("backhaul", backhaul.empty() ? "identity" : backhaul)
                  .set("edges", run.edges)
                  .set("uplink_bytes", run.uplink_bytes)
                  .set("root_ingress_bytes", run.root_bytes)
                  .set("backhaul_bytes", run.backhaul_bytes)
                  .set("backhaul_ratio", run.backhaul_ratio)
                  .set("max_peak_decoded_per_node", run.max_peak)
                  .set("peak_nodes", run.peak_nodes)
                  .set("virtual_seconds", run.virtual_seconds)
                  .set("final_accuracy", run.final_accuracy));
    return run;
  };

  if (options.smoke) {
    // The CI guard: one 1024-client fanout-32 round, then the same
    // population through a depth-2 32x8 tree. Root ingress must telescope
    // (O(edges), then O(tier-2 nodes)) and no aggregation point may ever
    // hold more than its fan-in's worth of decoded updates.
    const std::size_t clients = options.clients > 0 ? options.clients : 1024;
    record_run(clients, {32}, "fedsz:eb=rel:1e-3", /*samples_per_client=*/1);
    record_run(clients, {32, 8}, "fedsz:eb=rel:1e-3",
               /*samples_per_client=*/1);
  } else {
    const std::vector<std::size_t> populations =
        full ? std::vector<std::size_t>{256, 1024}
             : std::vector<std::size_t>{32, 128};
    const std::vector<std::size_t> fanouts =
        full ? std::vector<std::size_t>{16, 32, 64}
             : std::vector<std::size_t>{4, 16};
    const std::size_t samples = full ? 4 : 2;
    for (const std::size_t clients : populations) {
      record_run(clients, {}, "", samples);  // flat reference
      for (const std::size_t fanout : fanouts) {
        if (fanout >= clients) continue;
        record_run(clients, {fanout}, "", samples);
      }
    }
    const std::size_t clients = populations.back();
    const std::size_t fanout = fanouts.back();
    // Depth-2 panel at the largest population: grouping the tier-1 edges
    // under a second tier telescopes root ingress a second time.
    const std::vector<std::size_t> depth2 =
        full ? std::vector<std::size_t>{32, 8}
             : std::vector<std::size_t>{8, 4};
    record_run(clients, depth2, "", samples);
    record_run(clients, depth2, "fedsz:eb=rel:1e-3", samples);
    // Backhaul-bound sweep at a fixed one-tier shape: lossy partial
    // re-encoding shrinks the root link a second time, and the sparse
    // backhaul races the SZ bounds on the same tree.
    for (const char* backhaul :
         {"fedsz:eb=rel:1e-3", "fedsz:eb=rel:1e-2",
          "sparse:eb=rel:1e-2,sparsity=0.9,bits=8"})
      record_run(clients, {fanout}, backhaul, samples);
  }
  table.print();
  json.set("runs", std::move(runs));
  json.set("peak_bound_ok", peak_ok);

  std::printf(
      "\nShape to check: root ingress shrinks from O(clients) updates to\n"
      "O(edges) partials the moment the topology goes hierarchical, and a\n"
      "lossy backhaul bound shrinks it again; 'Max peak/node' stays at 1 —\n"
      "every aggregation point streams, so memory is O(1) per node and\n"
      "O(fanout) is a loose upper bound.\n");

  if (!options.json_path.empty()) {
    util::write_json(options.json_path, json);
    std::printf("\nwrote %s\n", options.json_path.c_str());
  }
  if (!options.trace_path.empty()) {
    core::write_trace(options.trace_path, traced);
    std::printf("\nwrote %s\n", options.trace_path.c_str());
  }
  if (!peak_ok) {
    std::fprintf(stderr,
                 "FAIL: a node exceeded the O(fanout) decoded-update bound\n");
    return 1;
  }
  return 0;
}
