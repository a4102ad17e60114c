// Figure 5 (policy-sweep edition): final inference accuracy across update
// codec specs — the paper's REL error-bound sweep (1e-5..1e-1) plus the
// policy-driven variants (layerwise, schedule, magnitude) — against the
// uncompressed baseline. Every codec is constructed from a spec string via
// the codec_spec grammar (parse_codec_spec + make_codec), so the sweep doubles as an end-to-end exercise of the
// spec grammar. The paper's claim: accuracy holds to within ~0.5% for
// bounds <= 1e-2, then falls off a cliff at 1e-1.
//
//   bench_fig5_accuracy_vs_bound [--clients N] [--rounds N] [--json PATH]
//                                [--smoke]
//
// Default: three models on CIFAR-10 (FEDSZ_BENCH_FULL=1 for all datasets);
// --smoke shrinks to one model and three specs for CI.
#include <cstdio>

#include "common.hpp"
#include "core/codec_spec.hpp"
#include "core/fl/coordinator.hpp"
#include "data/synthetic.hpp"

namespace {

using namespace fedsz;

struct SweepResult {
  double accuracy = 0.0;
  std::size_t bytes_sent = 0;
  std::size_t raw_bytes = 0;
  double mean_bound = 0.0;  // mean trace bound over all folded updates
};

SweepResult run_spec(const std::string& arch, const std::string& dataset,
                     const std::string& spec,
                     const benchx::BenchOptions& options) {
  const data::SyntheticSpec data_spec = data::dataset_spec(dataset);
  nn::ModelConfig model;
  model.arch = arch;
  model.scale = nn::ModelScale::kTiny;
  model.in_channels = data_spec.channels;
  model.image_size = data_spec.image_size;
  model.num_classes = data_spec.classes;
  auto [train, test] = data::make_dataset(dataset);
  core::FlRunConfig config;
  config.clients = options.clients > 0 ? options.clients : 4;
  config.rounds = options.rounds > 0 ? options.rounds : (options.smoke ? 2 : 4);
  config.eval_limit = options.smoke ? 96 : 192;
  config.threads = options.threads_or(4);
  config.client.batch_size = 16;
  // AlexNet (no BatchNorm) diverges at the BN models' rate.
  config.client.sgd.learning_rate = arch == "alexnet" ? 0.02f : 0.05f;
  config.seed = options.seed_or(7);
  config.evaluate_every_round = false;
  const std::size_t train_samples =
      options.smoke ? 128 : (data_spec.image_size >= 64 ? 256 : 512);
  // Parse the spec once so comm-level keys (downlink=/downmode=/ef=) in a
  // --codec override configure the run instead of being dropped.
  const core::CodecSpec parsed = core::parse_codec_spec(spec);
  config.apply_comm_spec(parsed);
  core::FlCoordinator coordinator(model, data::take(train, train_samples),
                                  data::take(test, options.smoke ? 128 : 256),
                                  config, core::make_codec(parsed));
  const core::FlRunResult result = coordinator.run();
  SweepResult out;
  out.accuracy = result.final_accuracy;
  double bound_sum = 0.0;
  std::size_t folded = 0;
  for (const core::RoundRecord& record : result.rounds) {
    out.bytes_sent += record.bytes_sent;
    out.raw_bytes += record.raw_bytes;
    for (const core::ClientTraceEntry& entry : record.clients) {
      bound_sum += entry.bound_value;
      ++folded;
    }
  }
  out.mean_bound = folded > 0 ? bound_sum / static_cast<double>(folded) : 0.0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fedsz;
  const benchx::BenchOptions options = benchx::parse_bench_options(argc, argv);
  const bool full = benchx::full_grid() && !options.smoke;
  const std::vector<std::string> datasets =
      full ? data::dataset_names() : std::vector<std::string>{"cifar10"};
  const std::vector<std::string> archs =
      options.smoke ? std::vector<std::string>{"mobilenet_v2"}
                    : nn::model_architectures();
  // Spec strings, label -> spec: the paper's bound sweep plus the policy
  // variants at the paper's default 1e-2 base bound.
  struct SpecEntry {
    std::string label;
    std::string spec;
  };
  std::vector<SpecEntry> specs;
  if (options.smoke) {
    specs = {{"1e-3", "fedsz:eb=rel:1e-3"},
             {"schedule", "fedsz:policy=schedule:0.5"},
             {"sparse+ef", "sparse:eb=rel:1e-2,sparsity=0.9,bits=8,ef=on"},
             {"raw", "identity"}};
  } else {
    specs = {{"1e-5", "fedsz:eb=rel:1e-5"},
             {"1e-4", "fedsz:eb=rel:1e-4"},
             {"1e-3", "fedsz:eb=rel:1e-3"},
             {"1e-2", "fedsz:eb=rel:1e-2"},
             {"1e-1", "fedsz:eb=rel:1e-1"},
             {"layerwise", "fedsz:policy=layerwise"},
             {"schedule", "fedsz:policy=schedule:0.5"},
             {"magnitude", "fedsz:policy=magnitude"},
             {"sparse", "sparse:eb=rel:1e-2,sparsity=0.9,bits=8"},
             {"sparse+ef", "sparse:eb=rel:1e-2,sparsity=0.9,bits=8,ef=on"},
             {"gradaware+ef",
              "sparse:eb=rel:1e-2,sparsity=0.9,bits=8,policy=gradaware:0.5,"
              "ef=on"},
             {"raw", "identity"}};
  }

  std::printf(
      "Figure 5: Top-1 accuracy vs update-codec spec (FedAvg, %s clients)\n"
      "specs are codec_spec grammar strings; policy columns use the 1e-2 "
      "base bound%s\n\n",
      options.clients > 0 ? std::to_string(options.clients).c_str() : "4",
      full ? "" : " — set FEDSZ_BENCH_FULL=1 for all datasets");

  util::JsonValue json = util::JsonValue::object();
  json.set("bench", "fig5_accuracy_vs_bound").set("smoke", options.smoke);
  util::JsonValue runs_json = util::JsonValue::array();
  for (const std::string& dataset : datasets) {
    std::printf("Dataset: %s\n", dataset.c_str());
    std::vector<std::string> headers{"Model"};
    for (const SpecEntry& entry : specs) headers.push_back(entry.label);
    benchx::Table table(std::move(headers));
    for (const std::string& arch : archs) {
      std::vector<std::string> row{nn::model_display_name(arch)};
      for (const SpecEntry& entry : specs) {
        const SweepResult result =
            run_spec(arch, dataset, entry.spec, options);
        row.push_back(benchx::fmt(result.accuracy * 100.0, 1));
        runs_json.push(util::JsonValue::object()
                           .set("dataset", dataset)
                           .set("arch", arch)
                           .set("label", entry.label)
                           .set("spec", entry.spec)
                           .set("accuracy", result.accuracy)
                           .set("bytes_sent", result.bytes_sent)
                           .set("raw_bytes", result.raw_bytes)
                           .set("mean_bound", result.mean_bound));
      }
      table.add_row(std::move(row));
    }
    table.print();
    std::printf("\n");
  }
  json.set("runs", std::move(runs_json));

  std::printf(
      "Shape to check (paper Fig. 5): accuracy flat and within noise of the\n"
      "raw column up to 1e-2, degrading at 1e-1; the policy columns track\n"
      "the 1e-2 column while shipping fewer bytes early (schedule) or\n"
      "per-layer-tuned bounds (layerwise/magnitude); the sparse columns\n"
      "trade a small accuracy dip (recovered by ef=on over rounds) for a\n"
      "strictly higher compression ratio than any SZ column.\n");
  if (!options.json_path.empty()) {
    util::write_json(options.json_path, json);
    std::printf("\nwrote %s\n", options.json_path.c_str());
  }
  return 0;
}
