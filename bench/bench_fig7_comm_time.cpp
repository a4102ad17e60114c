// Figure 7: total communication time (compression + transfer +
// decompression) for a client update over a simulated 10 Mbps network,
// sweeping the FedSZ relative error bound 1e-5..1e-2, against the
// uncompressed transfer — per model. A second panel replays the Eqn (1)
// decision per client over a heterogeneous log-normal WAN, where
// compress-or-not genuinely differs link by link. A third panel models the
// BIDIRECTIONAL round trip: the global-model broadcast (encode + transfer +
// decode) now rides the same link before the uplink starts, compressed or
// raw.
//
//   bench_fig7_comm_time [--bandwidth MBPS] [--seed N] [--threads N]
//                        [--json PATH] [--smoke]
#include <cstdio>

#include "common.hpp"
#include "core/fedsz.hpp"
#include "net/bandwidth.hpp"
#include "net/heterogeneous.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace fedsz;
  const benchx::BenchOptions options = benchx::parse_bench_options(argc, argv);
  const double mbps =
      options.bandwidth_mbps > 0.0 ? options.bandwidth_mbps : 10.0;
  const net::SimulatedNetwork network({mbps, 0.0});
  util::JsonValue json = util::JsonValue::object();
  json.set("bench", "fig7_comm_time").set("bandwidth_mbps", mbps);
  util::JsonValue models_json = util::JsonValue::array();

  std::printf(
      "Figure 7: total communication time over a %.0f Mbps link vs REL "
      "bound\n(bench-scale trained models; time = t_C + transfer(S') + "
      "t_D)\n\n",
      mbps);
  const std::vector<double> bounds =
      options.smoke ? std::vector<double>{1e-2}
                    : std::vector<double>{1e-5, 1e-4, 1e-3, 1e-2};
  const std::vector<std::string> archs =
      options.smoke ? std::vector<std::string>{"alexnet"}
                    : nn::model_architectures();
  for (const std::string& arch : archs) {
    const StateDict trained = benchx::trained_state_dict(arch, "cifar10");
    const std::size_t raw_bytes = trained.serialize().size();
    const double uncompressed_seconds = network.transfer_seconds(raw_bytes);
    std::printf("Model: %s (update %s, uncompressed transfer %ss)\n",
                nn::model_display_name(arch).c_str(),
                benchx::fmt_bytes(raw_bytes).c_str(),
                benchx::fmt(uncompressed_seconds, 2).c_str());
    util::JsonValue model_json = util::JsonValue::object();
    model_json.set("arch", arch).set("raw_bytes", raw_bytes);
    util::JsonValue bounds_json = util::JsonValue::array();
    benchx::Table table({"REL bound", "CR", "FedSZ time (s)",
                         "Uncompressed (s)", "Speedup"});
    for (const double rel : bounds) {
      core::FedSzConfig config;
      config.bound = lossy::ErrorBound::relative(rel);
      config.parallelism = options.threads_or(1);
      const core::FedSz fedsz(config);
      core::CompressionStats stats;
      Timer timer;
      const Bytes blob = fedsz.compress(trained, &stats);
      const double compress_seconds = timer.seconds();
      core::CompressionStats decode_stats;
      fedsz.decompress({blob.data(), blob.size()}, &decode_stats);
      const net::CompressionDecision decision = net::evaluate_compression(
          raw_bytes, blob.size(), compress_seconds,
          decode_stats.decompress_seconds, network);
      table.add_row({benchx::fmt(rel, 5), benchx::fmt(stats.ratio(), 2),
                     benchx::fmt(decision.compressed_seconds, 3),
                     benchx::fmt(decision.uncompressed_seconds, 3),
                     benchx::fmt(decision.speedup(), 2) + "x"});
      bounds_json.push(util::JsonValue::object()
                           .set("rel_bound", rel)
                           .set("ratio", stats.ratio())
                           .set("fedsz_seconds", decision.compressed_seconds)
                           .set("uncompressed_seconds",
                                decision.uncompressed_seconds)
                           .set("worthwhile", decision.worthwhile));
    }
    table.print();
    std::printf("\n");
    model_json.set("bounds", std::move(bounds_json));
    models_json.push(std::move(model_json));
  }
  json.set("models", std::move(models_json));

  // Per-client Eqn (1) over a heterogeneous WAN: same AlexNet update and
  // codec timings, but every client faces its own drawn link, so the
  // compress-or-not verdict differs across the fleet.
  {
    const StateDict trained = benchx::trained_state_dict("alexnet", "cifar10");
    const std::size_t raw_bytes = trained.serialize().size();
    const core::FedSz fedsz(core::FedSzConfig{});
    core::CompressionStats stats;
    Timer timer;
    const Bytes blob = fedsz.compress(trained, &stats);
    const double compress_seconds = timer.seconds();
    core::CompressionStats decode_stats;
    fedsz.decompress({blob.data(), blob.size()}, &decode_stats);
    const double decompress_seconds = decode_stats.decompress_seconds;

    const std::size_t clients =
        options.clients > 0 ? options.clients : (options.smoke ? 4 : 8);
    net::HeterogeneousNetworkConfig links;
    links.distribution = net::LinkDistribution::kLogNormalWan;
    links.wan_median_mbps = mbps * 5.0;
    links.wan_log_sigma = 1.5;
    if (options.has_seed) links.seed = options.seed;
    const net::HeterogeneousNetwork wan(links, clients);
    std::printf(
        "Per-client Eqn (1) on a log-normal WAN (AlexNet @ REL 1e-2,\n"
        "median %.0f Mbps, sigma 1.5): compression pays only on slow "
        "links\n",
        links.wan_median_mbps);
    util::JsonValue clients_json = util::JsonValue::array();
    benchx::Table table({"Client", "Link (Mbps)", "FedSZ (s)", "Raw (s)",
                         "Compress?"});
    for (std::size_t i = 0; i < clients; ++i) {
      const net::CompressionDecision decision = net::evaluate_compression(
          raw_bytes, blob.size(), compress_seconds, decompress_seconds,
          wan.link(i));
      table.add_row(
          {std::to_string(i),
           benchx::fmt(wan.link(i).profile().bandwidth_mbps, 1),
           benchx::fmt(decision.compressed_seconds, 3),
           benchx::fmt(decision.uncompressed_seconds, 3),
           decision.worthwhile ? "yes" : "no"});
      clients_json.push(
          util::JsonValue::object()
              .set("client", i)
              .set("bandwidth_mbps", wan.link(i).profile().bandwidth_mbps)
              .set("fedsz_seconds", decision.compressed_seconds)
              .set("uncompressed_seconds", decision.uncompressed_seconds)
              .set("worthwhile", decision.worthwhile));
    }
    table.print();
    json.set("per_client_wan", std::move(clients_json));
  }

  // Bidirectional panel: the same AlexNet state rides the link TWICE per
  // round — global broadcast down, update up — so the honest per-round comm
  // time includes both legs. Compare a raw broadcast against routing the
  // broadcast through the same FedSZ path as the uplink.
  {
    const StateDict trained = benchx::trained_state_dict("alexnet", "cifar10");
    const std::size_t raw_bytes = trained.serialize().size();
    core::FedSzConfig config;
    config.parallelism = options.threads_or(1);
    const core::FedSz fedsz(config);
    core::CompressionStats stats;
    Timer timer;
    const Bytes blob = fedsz.compress(trained, &stats);
    const double compress_seconds = timer.seconds();
    core::CompressionStats decode_stats;
    fedsz.decompress({blob.data(), blob.size()}, &decode_stats);
    const double codec_seconds =
        compress_seconds + decode_stats.decompress_seconds;
    const double raw_transfer = network.transfer_seconds(raw_bytes);
    const double fedsz_transfer = network.transfer_seconds(blob.size());
    const double uplink_only = codec_seconds + fedsz_transfer;
    const double raw_downlink = raw_transfer + uplink_only;
    const double fedsz_downlink = codec_seconds + fedsz_transfer + uplink_only;
    std::printf(
        "\nBidirectional round trip (AlexNet @ REL 1e-2, %.0f Mbps):\n",
        mbps);
    benchx::Table table({"Comm model", "Down (s)", "Up (s)", "Total (s)"});
    table.add_row({"uplink only (paper)", "0.000",
                   benchx::fmt(uplink_only, 3), benchx::fmt(uplink_only, 3)});
    table.add_row({"raw broadcast", benchx::fmt(raw_transfer, 3),
                   benchx::fmt(uplink_only, 3),
                   benchx::fmt(raw_downlink, 3)});
    table.add_row({"FedSZ broadcast",
                   benchx::fmt(codec_seconds + fedsz_transfer, 3),
                   benchx::fmt(uplink_only, 3),
                   benchx::fmt(fedsz_downlink, 3)});
    table.print();
    json.set("bidirectional",
             util::JsonValue::object()
                 .set("uplink_only_seconds", uplink_only)
                 .set("raw_broadcast_total_seconds", raw_downlink)
                 .set("fedsz_broadcast_total_seconds", fedsz_downlink));
  }

  std::printf(
      "\nShape to check (paper Fig. 7): an order-of-magnitude reduction at\n"
      "every bound, growing as the bound loosens (paper: 13.26x for AlexNet\n"
      "at 1e-2 on 10 Mbps). In the bidirectional panel a raw broadcast\n"
      "roughly doubles round comm time; a compressed one nearly removes the\n"
      "gap.\n");
  if (!options.json_path.empty()) {
    util::write_json(options.json_path, json);
    std::printf("\nwrote %s\n", options.json_path.c_str());
  }
  return 0;
}
