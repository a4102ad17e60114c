// Bidirectional communication sweep: uplink x downlink error bounds through
// the event-driven runtime, with and without per-client error feedback.
// The paper models only the client->server uplink; this bench quantifies
// what charging the global-model broadcast against each client's own link
// changes — total virtual round time, bytes in each direction, and the
// accuracy cost of a lossy broadcast — plus how error feedback recovers
// accuracy when the uplink bound turns aggressive.
//
//   bench_bidirectional [--clients N] [--rounds N] [--seed N] [--threads N]
//                       [--json PATH] [--smoke]
#include <cstdio>

#include "common.hpp"
#include "core/codec_spec.hpp"
#include "core/fl/coordinator.hpp"
#include "data/synthetic.hpp"

namespace {

using namespace fedsz;

struct SweepResult {
  double accuracy = 0.0;
  std::size_t uplink_bytes = 0;
  std::size_t downlink_bytes = 0;
  double virtual_seconds = 0.0;
  double mean_ef_residual_norm = 0.0;
};

SweepResult run_pair(const std::string& uplink, const std::string& downlink,
                     bool error_feedback,
                     const benchx::BenchOptions& options) {
  auto [train, test] = data::make_dataset("cifar10");
  nn::ModelConfig model;
  model.arch = "mobilenet_v2";
  model.scale = nn::ModelScale::kTiny;
  core::FlRunConfig config;
  config.clients = options.clients > 0 ? options.clients : 8;
  config.rounds = options.rounds > 0 ? options.rounds : (options.smoke ? 2 : 4);
  config.eval_limit = options.smoke ? 64 : 192;
  config.threads = options.threads_or(4);
  config.seed = options.seed_or(11);
  config.client.batch_size = 8;
  config.client.sgd.learning_rate = 0.05f;
  config.evaluate_every_round = false;
  config.downlink_spec = downlink;
  config.error_feedback = error_feedback;
  net::HeterogeneousNetworkConfig links;
  links.distribution = net::LinkDistribution::kUniformEdge;
  links.edge_min_mbps = 4.0;
  links.edge_max_mbps = 20.0;
  links.seed = config.seed ^ 0x11775533ull;
  config.heterogeneous = links;
  const std::size_t samples = options.smoke ? 96 : 256;
  core::FlCoordinator coordinator(
      model, data::take(train, samples),
      data::take(test, options.smoke ? 64 : 192), config,
      core::make_codec(uplink));
  const core::FlRunResult result = coordinator.run();
  SweepResult out;
  out.accuracy = result.final_accuracy;
  out.virtual_seconds = result.total_virtual_seconds;
  for (const core::RoundRecord& record : result.rounds) {
    out.uplink_bytes += record.bytes_sent;
    out.downlink_bytes += record.downlink_bytes;
    out.mean_ef_residual_norm += record.mean_ef_residual_norm;
  }
  out.mean_ef_residual_norm /= static_cast<double>(result.rounds.size());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fedsz;
  const benchx::BenchOptions options = benchx::parse_bench_options(argc, argv);

  struct Leg {
    std::string label;
    std::string spec;
  };
  std::vector<Leg> uplinks;
  std::vector<Leg> downlinks;
  if (options.smoke) {
    uplinks = {{"up 1e-1", "fedsz:eb=rel:1e-1"}};
    downlinks = {{"free", ""}, {"down 1e-3", "fedsz:eb=rel:1e-3"}};
  } else {
    uplinks = {{"up 1e-3", "fedsz:eb=rel:1e-3"},
               {"up 1e-2", "fedsz:eb=rel:1e-2"},
               {"up 1e-1", "fedsz:eb=rel:1e-1"}};
    downlinks = {{"free", ""},
                 {"down identity", "identity"},
                 {"down 1e-3", "fedsz:eb=rel:1e-3"},
                 {"down 1e-2", "fedsz:eb=rel:1e-2"}};
  }

  std::printf(
      "Bidirectional sweep: uplink x downlink bounds, %s clients on a\n"
      "4..20 Mbps uniform-edge fleet ('free' = the paper's unmodeled\n"
      "lossless broadcast)\n\n",
      options.clients > 0 ? std::to_string(options.clients).c_str() : "8");

  util::JsonValue json = util::JsonValue::object();
  json.set("bench", "bidirectional").set("smoke", options.smoke);
  util::JsonValue runs_json = util::JsonValue::array();

  for (const bool ef : {false, true}) {
    std::printf("Error feedback: %s\n", ef ? "on" : "off");
    benchx::Table table({"Uplink", "Downlink", "Accuracy", "Up bytes",
                         "Down bytes", "Virtual time (s)", "EF residual"});
    for (const Leg& up : uplinks) {
      for (const Leg& down : downlinks) {
        const SweepResult result = run_pair(up.spec, down.spec, ef, options);
        table.add_row({up.label, down.label,
                       benchx::fmt(result.accuracy * 100.0, 1) + "%",
                       benchx::fmt_bytes(result.uplink_bytes),
                       benchx::fmt_bytes(result.downlink_bytes),
                       benchx::fmt(result.virtual_seconds, 1),
                       benchx::fmt(result.mean_ef_residual_norm, 3)});
        runs_json.push(util::JsonValue::object()
                           .set("uplink", up.spec)
                           .set("downlink", down.spec)
                           .set("error_feedback", ef)
                           .set("accuracy", result.accuracy)
                           .set("uplink_bytes", result.uplink_bytes)
                           .set("downlink_bytes", result.downlink_bytes)
                           .set("virtual_seconds", result.virtual_seconds)
                           .set("mean_ef_residual_norm",
                                result.mean_ef_residual_norm));
      }
    }
    table.print();
    std::printf("\n");
  }
  json.set("runs", std::move(runs_json));

  std::printf(
      "Shape to check: any non-free downlink adds bytes and virtual time to\n"
      "every round (the broadcast now rides each client's own link); at the\n"
      "aggressive up 1e-1 bound the EF-on panel recovers most of the\n"
      "accuracy the EF-off panel loses.\n");
  if (!options.json_path.empty()) {
    util::write_json(options.json_path, json);
    std::printf("\nwrote %s\n", options.json_path.c_str());
  }
  return 0;
}
