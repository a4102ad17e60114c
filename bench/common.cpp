#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "core/fedsz.hpp"
#include "data/dataloader.hpp"
#include "data/synthetic.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "util/timer.hpp"

namespace fedsz::benchx {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void Table::print() const {
  std::vector<std::size_t> widths(headers_.size(), 0);
  for (std::size_t c = 0; c < headers_.size(); ++c)
    widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());
  auto print_row = [&](const std::vector<std::string>& row) {
    std::printf("|");
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      std::printf(" %-*s |", static_cast<int>(widths[c]), cell.c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  std::printf("|");
  for (const std::size_t w : widths) {
    for (std::size_t i = 0; i < w + 2; ++i) std::printf("-");
    std::printf("|");
  }
  std::printf("\n");
  for (const auto& row : rows_) print_row(row);
}

std::string fmt(double value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

std::string fmt_bytes(std::size_t bytes) {
  char buffer[64];
  if (bytes >= 1024 * 1024)
    std::snprintf(buffer, sizeof(buffer), "%.2fMB",
                  static_cast<double>(bytes) / (1024.0 * 1024.0));
  else if (bytes >= 1024)
    std::snprintf(buffer, sizeof(buffer), "%.1fKB",
                  static_cast<double>(bytes) / 1024.0);
  else
    std::snprintf(buffer, sizeof(buffer), "%zuB", bytes);
  return buffer;
}

bool full_grid() {
  const char* env = std::getenv("FEDSZ_BENCH_FULL");
  return env != nullptr && env[0] == '1';
}

namespace {

[[noreturn]] void usage_and_exit(const char* program, int code) {
  std::fprintf(
      code == 0 ? stdout : stderr,
      "usage: %s [--clients N] [--rounds N] [--bandwidth MBPS]\n"
      "          [--codec SPEC] [--seed N] [--threads N] [--json PATH]\n"
      "          [--trace PATH] [--out PATH] [--smoke] [--help]\n"
      "SPEC is a codec spec string (core/codec_spec.hpp): a family\n"
      "(identity, fedsz, fedsz-parallel) optionally followed by options,\n"
      "e.g. fedsz:lossy=sz3,eb=rel:1e-3,lossless=zstd,policy=schedule.\n"
      "Zero/omitted values keep the bench's defaults; --smoke shrinks the\n"
      "grid to a CI-sized run; --json also writes machine-readable output;\n"
      "--trace writes the last campaign's full per-round trace as JSON\n"
      "(campaign benches only); --out sends the console output to a file\n"
      "instead of stdout.\n",
      program);
  std::exit(code);
}

}  // namespace

BenchOptions parse_bench_options(int argc, char** argv) {
  BenchOptions options;
  const char* program = argc > 0 ? argv[0] : "bench";
  auto value_of = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s: missing value for %s\n", program, argv[i]);
      usage_and_exit(program, 2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    char* end = nullptr;
    if (flag == "--help" || flag == "-h") {
      usage_and_exit(program, 0);
    } else if (flag == "--smoke") {
      options.smoke = true;
    } else if (flag == "--clients") {
      const char* value = value_of(i);
      options.clients = std::strtoul(value, &end, 10);
      if (end == value || *end != '\0' || options.clients == 0) {
        std::fprintf(stderr, "%s: --clients wants a positive integer\n",
                     program);
        usage_and_exit(program, 2);
      }
    } else if (flag == "--rounds") {
      const char* value = value_of(i);
      options.rounds = static_cast<int>(std::strtol(value, &end, 10));
      if (end == value || *end != '\0' || options.rounds <= 0) {
        std::fprintf(stderr, "%s: --rounds wants a positive integer\n",
                     program);
        usage_and_exit(program, 2);
      }
    } else if (flag == "--bandwidth") {
      const char* value = value_of(i);
      options.bandwidth_mbps = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(options.bandwidth_mbps > 0.0)) {
        std::fprintf(stderr, "%s: --bandwidth wants a positive Mbps value\n",
                     program);
        usage_and_exit(program, 2);
      }
    } else if (flag == "--codec") {
      options.codec = value_of(i);
    } else if (flag == "--seed") {
      const char* value = value_of(i);
      options.seed = std::strtoull(value, &end, 10);
      // strtoull silently wraps a leading '-'; only bare digits are valid.
      if (end == value || *end != '\0' || value[0] == '-') {
        std::fprintf(stderr, "%s: --seed wants a non-negative integer\n",
                     program);
        usage_and_exit(program, 2);
      }
      options.has_seed = true;
    } else if (flag == "--threads") {
      const char* value = value_of(i);
      options.threads = std::strtoul(value, &end, 10);
      if (end == value || *end != '\0' || value[0] == '-' ||
          options.threads == 0) {
        std::fprintf(stderr, "%s: --threads wants a positive integer\n",
                     program);
        usage_and_exit(program, 2);
      }
    } else if (flag == "--json") {
      options.json_path = value_of(i);
    } else if (flag == "--trace") {
      options.trace_path = value_of(i);
    } else if (flag == "--out") {
      options.out_path = value_of(i);
    } else {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", program, flag.c_str());
      usage_and_exit(program, 2);
    }
  }
  if (!options.out_path.empty()) {
    // Reopen stdout onto the file so every bench's printf-based tables land
    // there without each binary (or a CI step) redirecting the stream.
    if (!std::freopen(options.out_path.c_str(), "w", stdout)) {
      std::fprintf(stderr, "%s: --out cannot open '%s'\n", program,
                   options.out_path.c_str());
      std::exit(2);
    }
  }
  return options;
}

namespace {

std::filesystem::path cache_path(const std::string& arch,
                                 const std::string& dataset,
                                 nn::ModelScale scale, int epochs,
                                 std::size_t samples) {
  const char* scale_name = scale == nn::ModelScale::kTiny    ? "tiny"
                           : scale == nn::ModelScale::kBench ? "bench"
                                                             : "paper";
  // v2: per-architecture learning rates (AlexNet diverged at the v1 rate).
  return std::filesystem::path("bench_cache") /
         (arch + "_" + dataset + "_" + scale_name + "_" +
          std::to_string(epochs) + "e_" + std::to_string(samples) + "_v2.sd");
}

}  // namespace

StateDict trained_state_dict(const std::string& arch,
                             const std::string& dataset, nn::ModelScale scale,
                             int epochs, std::size_t samples) {
  const std::filesystem::path path =
      cache_path(arch, dataset, scale, epochs, samples);
  if (std::filesystem::exists(path)) {
    std::ifstream in(path, std::ios::binary);
    Bytes bytes((std::istreambuf_iterator<char>(in)),
                std::istreambuf_iterator<char>());
    return StateDict::deserialize({bytes.data(), bytes.size()});
  }

  const data::SyntheticSpec spec = data::dataset_spec(dataset);
  nn::ModelConfig config;
  config.arch = arch;
  config.scale = scale;
  config.in_channels = spec.channels;
  config.image_size = spec.image_size;
  config.num_classes = spec.classes;
  nn::BuiltModel built = nn::build_model(config);

  auto [train, test] = data::make_dataset(dataset);
  data::DataLoader loader(data::take(train, samples), 32, true, 17);
  // AlexNet (no BatchNorm) diverges at the BN models' rate.
  const float lr = arch == "alexnet" ? 0.015f : 0.03f;
  nn::Sgd optimizer(built.model.parameters(), {lr, 0.9f, 0.0f});
  for (int epoch = 0; epoch < epochs; ++epoch) {
    loader.reset();
    data::Batch batch;
    while (loader.next(batch)) {
      built.model.zero_grad();
      const Tensor logits = built.model.forward(batch.images, true);
      const nn::LossResult loss = nn::softmax_cross_entropy(
          logits, {batch.labels.data(), batch.labels.size()});
      built.model.backward(loss.grad_logits);
      optimizer.step();
    }
  }
  StateDict dict = built.model.state_dict();
  std::filesystem::create_directories(path.parent_path());
  const Bytes bytes = dict.serialize();
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return dict;
}

std::vector<float> lossy_partition_values(const StateDict& dict,
                                          std::size_t threshold) {
  std::vector<float> values;
  for (const auto& [name, tensor] : dict)
    if (core::is_lossy_entry(name, tensor.numel(), threshold))
      values.insert(values.end(), tensor.data(),
                    tensor.data() + tensor.numel());
  return values;
}

Bytes lossless_partition_bytes(const StateDict& dict, std::size_t threshold) {
  StateDict partition;
  for (const auto& [name, tensor] : dict)
    if (!core::is_lossy_entry(name, tensor.numel(), threshold))
      partition.set(name, tensor);
  return partition.serialize();
}

TrialStats trial_stats(std::vector<double> samples) {
  TrialStats stats;
  stats.samples = samples.size();
  if (samples.empty()) return stats;
  std::sort(samples.begin(), samples.end());
  // Linear interpolation between order statistics.
  auto quantile = [&](double q) {
    const double pos = q * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    return samples[lo] + (pos - static_cast<double>(lo)) *
                             (samples[hi] - samples[lo]);
  };
  stats.median = quantile(0.5);
  stats.q1 = quantile(0.25);
  stats.q3 = quantile(0.75);
  return stats;
}

std::vector<TrialStats> interleaved_trials(
    std::size_t cases, int trials,
    const std::function<double(std::size_t)>& run_case) {
  std::vector<std::vector<double>> seconds(cases);
  for (std::size_t i = 0; i < cases; ++i) (void)run_case(i);  // warm-up
  for (int t = 0; t < trials; ++t)
    for (std::size_t i = 0; i < cases; ++i)
      seconds[i].push_back(run_case(i));
  std::vector<TrialStats> stats;
  stats.reserve(cases);
  for (std::vector<double>& s : seconds)
    stats.push_back(trial_stats(std::move(s)));
  return stats;
}

CodecTiming measure_lossy(const lossy::LossyCodec& codec,
                          std::span<const float> data,
                          const lossy::ErrorBound& bound, int repetitions) {
  CodecTiming timing;
  timing.raw_bytes = data.size() * sizeof(float);
  Bytes compressed;
  double best_compress = 1e300, best_decompress = 1e300;
  for (int rep = 0; rep < repetitions; ++rep) {
    Timer timer;
    compressed = codec.compress(data, bound);
    best_compress = std::min(best_compress, timer.seconds());
    timer.reset();
    volatile std::size_t sink =
        codec.decompress({compressed.data(), compressed.size()}).size();
    (void)sink;
    best_decompress = std::min(best_decompress, timer.seconds());
  }
  timing.compress_seconds = best_compress;
  timing.decompress_seconds = best_decompress;
  timing.compressed_bytes = compressed.size();
  return timing;
}

CodecTiming measure_lossless(const lossless::LosslessCodec& codec,
                             ByteSpan data, int repetitions) {
  CodecTiming timing;
  timing.raw_bytes = data.size();
  Bytes compressed;
  double best_compress = 1e300, best_decompress = 1e300;
  for (int rep = 0; rep < repetitions; ++rep) {
    Timer timer;
    compressed = codec.compress(data);
    best_compress = std::min(best_compress, timer.seconds());
    timer.reset();
    volatile std::size_t sink =
        codec.decompress({compressed.data(), compressed.size()}).size();
    (void)sink;
    best_decompress = std::min(best_decompress, timer.seconds());
  }
  timing.compress_seconds = best_compress;
  timing.decompress_seconds = best_decompress;
  timing.compressed_bytes = compressed.size();
  return timing;
}

}  // namespace fedsz::benchx
