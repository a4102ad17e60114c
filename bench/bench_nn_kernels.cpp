// Per-layer nn kernel throughput: forward and backward GFLOP/s of every
// Conv2d and Linear in mobilenet_v2, resnet and alexnet at kTiny and kBench
// scale, batch 16 and 64. Each layer runs alone on its in-model input
// geometry (post-ReLU-like inputs with exact zeros, gradients with zeros).
// Timings are interleaved trials over all layers of one model, reported as
// median GFLOP/s plus the interquartile spread of the timings. The model
// rows sum flops and median seconds over the model's layers.
//
//   ./build/bench_nn_kernels                 full grid
//   ./build/bench_nn_kernels --smoke --json bench_nn_kernels_smoke.json
//
// --smoke runs kTiny at batch 16 only. The layer geometry below mirrors
// nn/models.cpp; it is checked against each built model's weight shapes and
// FLOP count, and the bench exits 1 when they disagree. Backward counts the
// grad-input and the weight-grad products, twice the forward flops.
#include <cmath>
#include <cstdio>
#include <thread>

#include "common.hpp"
#include "nn/conv.hpp"
#include "nn/layers.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace fedsz;

/// One Conv2d or Linear of a model and the input geometry it sees.
struct LayerShape {
  bool linear = false;
  std::int64_t in_c = 0, out_c = 0, groups = 1;
  int kernel = 1, stride = 1, padding = 0;
  bool bias = false;
  std::int64_t height = 1, width = 1;  // conv input plane

  std::int64_t out_h() const {
    return (height + 2 * padding - kernel) / stride + 1;
  }
  std::int64_t out_w() const {
    return (width + 2 * padding - kernel) / stride + 1;
  }
  /// One forward pass of one sample: 2 * multiply-accumulates.
  double flops() const {
    if (linear) return 2.0 * static_cast<double>(in_c * out_c);
    return 2.0 * kernel * kernel * static_cast<double>(in_c / groups) *
           static_cast<double>(out_c * out_h() * out_w());
  }
  Shape weight_shape() const {
    if (linear) return {out_c, in_c};
    return {out_c, in_c / groups, kernel, kernel};
  }
  std::string label() const {
    if (linear)
      return "linear " + std::to_string(in_c) + "->" + std::to_string(out_c);
    std::string kind = std::to_string(kernel) + "x" + std::to_string(kernel);
    if (groups > 1)
      kind += groups == in_c ? " dw" : " g" + std::to_string(groups);
    return "conv" + kind + (stride > 1 ? " s" + std::to_string(stride) : "") +
           " " + std::to_string(in_c) + "->" + std::to_string(out_c) + " @" +
           std::to_string(height) + "x" + std::to_string(width);
  }
};

/// The shapes side of nn/models.cpp's Builder: tracks the activation
/// geometry and records every Conv2d and Linear in parameter order.
struct Shapes {
  std::int64_t c, h, w;
  std::vector<LayerShape> layers;

  void conv(std::int64_t out_c, int kernel, int stride, int padding,
            std::int64_t groups = 1, bool bias = true) {
    LayerShape l;
    l.in_c = c;
    l.out_c = out_c;
    l.groups = groups;
    l.kernel = kernel;
    l.stride = stride;
    l.padding = padding;
    l.bias = bias;
    l.height = h;
    l.width = w;
    layers.push_back(l);
    c = out_c;
    h = l.out_h();
    w = l.out_w();
  }
  void pool(int kernel, int stride) {
    h = (h - kernel) / stride + 1;
    w = (w - kernel) / stride + 1;
  }
  void linear(std::int64_t in, std::int64_t out) {
    LayerShape l;
    l.linear = true;
    l.in_c = in;
    l.out_c = out;
    l.bias = true;
    layers.push_back(l);
  }
};

std::vector<LayerShape> model_layers(const std::string& arch,
                                     nn::ModelScale scale) {
  const bool tiny = scale == nn::ModelScale::kTiny;
  Shapes b{3, 32, 32, {}};
  if (arch == "alexnet") {
    const std::int64_t c1 = tiny ? 8 : 24, c2 = tiny ? 12 : 48,
                       c3 = tiny ? 16 : 64, fc = tiny ? 64 : 512;
    b.conv(c1, 3, 1, 1);
    b.pool(2, 2);
    b.conv(c2, 3, 1, 1);
    b.pool(2, 2);
    b.conv(c3, 3, 1, 1);
    b.conv(c3, 3, 1, 1);
    b.conv(c2, 3, 1, 1);
    b.pool(2, 2);
    b.linear(b.c * b.h * b.w, fc);
    b.linear(fc, fc);
    b.linear(fc, 10);
  } else if (arch == "mobilenet_v2") {
    struct Block {
      std::int64_t expand, out_c;
      int repeats, stride;
    };
    const std::int64_t stem = tiny ? 8 : 16, head = tiny ? 64 : 128;
    const std::vector<Block> blocks =
        tiny ? std::vector<Block>{{1, 8, 1, 1}, {4, 16, 2, 2}, {4, 24, 1, 2}}
             : std::vector<Block>{
                   {1, 16, 1, 1}, {6, 24, 2, 2}, {6, 32, 2, 2}, {6, 64, 2, 1}};
    b.conv(stem, 3, 1, 1, 1, false);
    for (const Block& block : blocks) {
      for (int i = 0; i < block.repeats; ++i) {
        const std::int64_t hidden = b.c * block.expand;
        if (block.expand != 1) b.conv(hidden, 1, 1, 0, 1, false);
        b.conv(hidden, 3, i == 0 ? block.stride : 1, 1, hidden, false);
        b.conv(block.out_c, 1, 1, 0, 1, false);
      }
    }
    b.conv(head, 1, 1, 0, 1, false);
    b.linear(head, 10);
  } else {  // resnet
    std::int64_t mid = tiny ? 8 : 16;
    const std::vector<int> counts =
        tiny ? std::vector<int>{1, 1} : std::vector<int>{2, 2, 2};
    b.conv(mid, 3, 1, 1, 1, false);
    for (std::size_t stage = 0; stage < counts.size(); ++stage, mid *= 2) {
      for (int i = 0; i < counts[stage]; ++i) {
        const int stride = stage > 0 && i == 0 ? 2 : 1;
        const Shapes in = {b.c, b.h, b.w, {}};
        b.conv(mid, 1, 1, 0, 1, false);
        b.conv(mid, 3, stride, 1, 1, false);
        b.conv(mid * 4, 1, 1, 0, 1, false);
        if (stride != 1 || in.c != mid * 4) {
          Shapes side = in;
          side.conv(mid * 4, 1, stride, 0, 1, false);
          b.layers.push_back(side.layers.back());
        }
      }
    }
    b.linear(b.c, 10);
  }
  return b.layers;
}

/// The mirrored geometry must match the built model: same conv/linear
/// weight shapes in parameter order and the same forward FLOP count.
bool matches_model(const std::string& arch, nn::ModelScale scale,
                   const std::vector<LayerShape>& layers) {
  nn::ModelConfig config;
  config.arch = arch;
  config.scale = scale;
  nn::BuiltModel built = nn::build_model(config);
  std::vector<Shape> weights;
  for (const nn::ParamRef& p : built.model.parameters()) {
    const std::size_t rank = p.value->rank();
    if ((rank == 4 || rank == 2) && p.name.ends_with("weight"))
      weights.push_back(p.value->shape());
  }
  double flops = 0.0;
  bool same = weights.size() == layers.size();
  for (std::size_t i = 0; same && i < layers.size(); ++i) {
    same = weights[i] == layers[i].weight_shape();
    flops += layers[i].flops();
  }
  return same && std::fabs(flops - built.flops) <= 1e-9 * built.flops;
}

/// Normal values with a share of exact zeros, as after a ReLU or in a
/// sparse gradient.
Tensor draw(Shape shape, Rng& rng, double zero_share) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i)
    t[i] = rng.uniform() < zero_share
               ? 0.0f
               : static_cast<float>(rng.normal(0.0, 1.0));
  return t;
}

struct LayerRun {
  nn::ModulePtr layer;
  Tensor input, grad;
  double flops = 0.0;  // one forward over the batch
};

struct Row {
  std::string name;
  double fwd_gflop_s = 0.0, bwd_gflop_s = 0.0, fwdbwd_gflop_s = 0.0;
  double fwd_spread = 0.0, bwd_spread = 0.0;
};

double gflop_s(double flops, double seconds) {
  return seconds > 0.0 ? flops / seconds / 1e9 : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const benchx::BenchOptions options = benchx::parse_bench_options(argc, argv);
  const int trials = options.smoke ? 5 : 11;
  const std::uint64_t seed = options.seed_or(17);
  const std::vector<nn::ModelScale> scales =
      options.smoke
          ? std::vector<nn::ModelScale>{nn::ModelScale::kTiny}
          : std::vector<nn::ModelScale>{nn::ModelScale::kTiny,
                                        nn::ModelScale::kBench};
  const std::vector<std::int64_t> batches =
      options.smoke ? std::vector<std::int64_t>{16}
                    : std::vector<std::int64_t>{16, 64};

  std::printf(
      "nn kernel throughput: forward / backward GFLOP/s per Conv2d and "
      "Linear,\nsingle-threaded, median of %d interleaved trials (spread = "
      "IQR / median of the timings).\n\n",
      trials);

  std::vector<Row> rows;
  benchx::Table table({"layer", "fwd GFLOP/s", "bwd GFLOP/s",
                       "fwd+bwd GFLOP/s", "spread fwd/bwd"});
  for (const std::string arch : {"mobilenet_v2", "resnet", "alexnet"}) {
    for (const nn::ModelScale scale : scales) {
      const std::string scale_name =
          scale == nn::ModelScale::kTiny ? "tiny" : "bench";
      const std::vector<LayerShape> shapes = model_layers(arch, scale);
      if (!matches_model(arch, scale, shapes)) {
        std::fprintf(stderr,
                     "bench_nn_kernels: layer geometry of %s/%s no longer "
                     "matches nn/models.cpp\n",
                     arch.c_str(), scale_name.c_str());
        return 1;
      }
      for (const std::int64_t batch : batches) {
        const std::string model = arch + "/" + scale_name + "/b" +
                                  std::to_string(batch);
        Rng rng(seed);
        std::vector<LayerRun> runs;
        for (const LayerShape& s : shapes) {
          LayerRun run;
          if (s.linear) {
            run.layer = std::make_shared<nn::Linear>(s.in_c, s.out_c, rng);
            run.input = draw({batch, s.in_c}, rng, 0.5);
            run.grad = draw({batch, s.out_c}, rng, 0.1);
          } else {
            run.layer = std::make_shared<nn::Conv2d>(
                s.in_c, s.out_c, s.kernel, s.stride, s.padding, s.groups,
                s.bias, rng);
            run.input = draw({batch, s.in_c, s.height, s.width}, rng, 0.5);
            run.grad = draw({batch, s.out_c, s.out_h(), s.out_w()}, rng, 0.1);
          }
          run.flops = s.flops() * static_cast<double>(batch);
          runs.push_back(std::move(run));
        }
        // Case 2i times layer i's training forward, case 2i+1 the backward
        // that follows it.
        const std::vector<benchx::TrialStats> stats =
            benchx::interleaved_trials(
                2 * runs.size(), trials, [&](std::size_t c) {
                  LayerRun& run = runs[c / 2];
                  Timer timer;
                  if (c % 2 == 0)
                    (void)run.layer->forward(run.input, /*training=*/true);
                  else
                    (void)run.layer->backward(run.grad);
                  return timer.seconds();
                });
        double flops = 0.0, fwd_s = 0.0, bwd_s = 0.0;
        for (std::size_t i = 0; i < runs.size(); ++i) {
          const benchx::TrialStats& f = stats[2 * i];
          const benchx::TrialStats& b = stats[2 * i + 1];
          Row row;
          row.name = model + "/" + shapes[i].label();
          row.fwd_gflop_s = gflop_s(runs[i].flops, f.median);
          row.bwd_gflop_s = gflop_s(2.0 * runs[i].flops, b.median);
          row.fwdbwd_gflop_s =
              gflop_s(3.0 * runs[i].flops, f.median + b.median);
          row.fwd_spread = f.spread();
          row.bwd_spread = b.spread();
          rows.push_back(row);
          flops += runs[i].flops;
          fwd_s += f.median;
          bwd_s += b.median;
        }
        Row total;
        total.name = model + "/total";
        total.fwd_gflop_s = gflop_s(flops, fwd_s);
        total.bwd_gflop_s = gflop_s(2.0 * flops, bwd_s);
        total.fwdbwd_gflop_s = gflop_s(3.0 * flops, fwd_s + bwd_s);
        rows.push_back(total);
      }
    }
  }

  for (const Row& r : rows)
    table.add_row({r.name, benchx::fmt(r.fwd_gflop_s, 2),
                   benchx::fmt(r.bwd_gflop_s, 2),
                   benchx::fmt(r.fwdbwd_gflop_s, 2),
                   r.name.ends_with("/total")
                       ? std::string()
                       : benchx::fmt(r.fwd_spread, 2) + " / " +
                             benchx::fmt(r.bwd_spread, 2)});
  table.print();

  if (!options.json_path.empty()) {
    util::JsonValue json = util::JsonValue::object();
    json.set("bench", "nn_kernels")
        .set("smoke", options.smoke)
        .set("seed", static_cast<std::size_t>(seed))
        .set("trials", trials)
        .set("nproc", static_cast<std::size_t>(
                          std::thread::hardware_concurrency()))
        .set("compiler", std::string(__VERSION__));
    util::JsonValue runs = util::JsonValue::array();
    for (const Row& r : rows) {
      util::JsonValue run = util::JsonValue::object();
      run.set("name", r.name)
          .set("fwd_gflop_s", r.fwd_gflop_s)
          .set("bwd_gflop_s", r.bwd_gflop_s)
          .set("fwdbwd_gflop_s", r.fwdbwd_gflop_s);
      if (!r.name.ends_with("/total"))
        run.set("fwd_spread", r.fwd_spread).set("bwd_spread", r.bwd_spread);
      runs.push(std::move(run));
    }
    json.set("runs", std::move(runs));
    util::write_json(options.json_path, json);
    std::printf("\nwrote %s\n", options.json_path.c_str());
  }
  return 0;
}
