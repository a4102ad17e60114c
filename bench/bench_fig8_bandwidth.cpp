// Figure 8: communication time for transmitting the AlexNet update across
// bandwidths 1..1000 Mbps for SZ2 / SZ3 / ZFP / original — the Eqn (1)
// trade-off curve, including the crossover bandwidth beyond which
// compression stops paying. A second panel prices the BIDIRECTIONAL round
// trip (broadcast down + update up) for the same bandwidths.
//
//   bench_fig8_bandwidth [--threads N] [--json PATH] [--smoke]
#include <cstdio>

#include "common.hpp"
#include "core/fedsz.hpp"
#include "net/bandwidth.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace fedsz;
  const benchx::BenchOptions options = benchx::parse_bench_options(argc, argv);
  const StateDict trained = benchx::trained_state_dict("alexnet", "cifar10");
  const std::size_t raw_bytes = trained.serialize().size();
  std::printf(
      "Figure 8: communication time vs bandwidth for the AlexNet update\n"
      "(%s; FedSZ @ REL 1e-2 with each lossy codec)\n\n",
      benchx::fmt_bytes(raw_bytes).c_str());

  struct Candidate {
    std::string label;
    std::size_t bytes;
    double codec_seconds;  // t_C + t_D
  };
  std::vector<Candidate> candidates;
  for (const lossy::LossyId id :
       {lossy::LossyId::kSz2, lossy::LossyId::kSz3, lossy::LossyId::kZfp}) {
    core::FedSzConfig config;
    config.lossy_id = id;
    config.parallelism = options.threads_or(1);
    const core::FedSz fedsz(config);
    Timer timer;
    const Bytes blob = fedsz.compress(trained);
    const double compress_seconds = timer.seconds();
    core::CompressionStats decode_stats;
    fedsz.decompress({blob.data(), blob.size()}, &decode_stats);
    candidates.push_back(
        {lossy::lossy_codec(id).name(), blob.size(),
         compress_seconds + decode_stats.decompress_seconds});
  }
  candidates.push_back({"original", raw_bytes, 0.0});

  std::vector<std::string> headers{"Bandwidth (Mbps)"};
  for (const Candidate& c : candidates) headers.push_back(c.label + " (s)");
  headers.push_back("best");
  benchx::Table table(std::move(headers));
  util::JsonValue sweep_json = util::JsonValue::array();
  util::JsonValue bidi_sweep = util::JsonValue::array();
  std::vector<double> crossover(candidates.size(), -1.0);
  const double max_mbps = options.smoke ? 64.0 : 1024.0;
  for (double mbps = 1.0; mbps <= max_mbps; mbps *= 2.0) {
    const net::SimulatedNetwork network({mbps, 0.0});
    std::vector<std::string> row{benchx::fmt(mbps, 0)};
    util::JsonValue row_json = util::JsonValue::object();
    row_json.set("bandwidth_mbps", mbps);
    double best_time = 1e300;
    std::size_t best_index = 0;
    const double original_time = network.transfer_seconds(raw_bytes);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const double total = candidates[i].codec_seconds +
                           network.transfer_seconds(candidates[i].bytes);
      row.push_back(benchx::fmt(total, 3));
      row_json.set(candidates[i].label, total);
      if (total < best_time) {
        best_time = total;
        best_index = i;
      }
      if (crossover[i] < 0.0 && i + 1 < candidates.size() &&
          total >= original_time)
        crossover[i] = mbps;
    }
    row.push_back(candidates[best_index].label);
    row_json.set("best", candidates[best_index].label);
    sweep_json.push(std::move(row_json));
    table.add_row(std::move(row));
  }
  table.print();
  std::printf("\n");

  // Bidirectional panel: the broadcast rides the same link before the
  // uplink. Candidate 0 is SZ2; the last candidate is the raw transfer.
  {
    const Candidate& sz2 = candidates.front();
    std::printf(
        "Bidirectional round trip (broadcast down + update up, SZ2):\n");
    benchx::Table bidi({"Bandwidth (Mbps)", "FedSZ both (s)",
                        "raw down + FedSZ up (s)", "raw both (s)"});
    util::JsonValue bidi_json = util::JsonValue::array();
    for (double mbps = 1.0; mbps <= max_mbps; mbps *= 4.0) {
      const net::SimulatedNetwork network({mbps, 0.0});
      const double fedsz_leg =
          sz2.codec_seconds + network.transfer_seconds(sz2.bytes);
      const double raw_leg = network.transfer_seconds(raw_bytes);
      bidi.add_row({benchx::fmt(mbps, 0), benchx::fmt(2.0 * fedsz_leg, 3),
                    benchx::fmt(raw_leg + fedsz_leg, 3),
                    benchx::fmt(2.0 * raw_leg, 3)});
      bidi_json.push(util::JsonValue::object()
                         .set("bandwidth_mbps", mbps)
                         .set("fedsz_both_seconds", 2.0 * fedsz_leg)
                         .set("raw_down_fedsz_up_seconds",
                              raw_leg + fedsz_leg)
                         .set("raw_both_seconds", 2.0 * raw_leg));
    }
    bidi.print();
    std::printf("\n");
    bidi_sweep = std::move(bidi_json);
  }

  for (std::size_t i = 0; i + 1 < candidates.size(); ++i) {
    if (crossover[i] > 0.0)
      std::printf("%s stops paying off at ~%.0f Mbps\n",
                  candidates[i].label.c_str(), crossover[i]);
    else
      std::printf("%s still pays off at 1024 Mbps\n",
                  candidates[i].label.c_str());
  }
  std::printf(
      "\nShape to check (paper Fig. 8): compression wins below roughly\n"
      "500 Mbps, with SZ2 best at the low end; above the crossover the raw\n"
      "transfer is faster than compress+send+decompress.\n");
  if (!options.json_path.empty()) {
    util::JsonValue json = util::JsonValue::object();
    json.set("bench", "fig8_bandwidth")
        .set("raw_bytes", raw_bytes)
        .set("sweep", std::move(sweep_json))
        .set("bidirectional_sweep", std::move(bidi_sweep));
    util::write_json(options.json_path, json);
    std::printf("\nwrote %s\n", options.json_path.c_str());
  }
  return 0;
}
