// Oracle test for the nn kernels: Conv2d and Linear must produce exactly the
// bits of the direct loops they replaced. The reference below is those loops
// verbatim. Over seeded random shapes (kernel 1/3/5, stride 1/2, padding
// 0-2, groups 1/2/C, bias on and off, batch 1/2/17, sizes that are not
// multiples of the vector width) the forward output, grad-input, weight grad
// and bias grad are compared with memcmp. Inputs carry exact zeros (as after
// a ReLU) and -0.0f, gradients carry zeros, and the parameter grads
// accumulate over two backward calls into non-zero buffers.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "nn/conv.hpp"
#include "nn/layers.hpp"
#include "util/rng.hpp"

namespace fedsz::nn {
namespace {

// ---- reference: the direct loops ----

struct RefConv {
  std::int64_t in_channels_, out_channels_, groups_;
  int kernel_, stride_, padding_;
  bool has_bias_;
  Tensor weight_, bias_, weight_grad_, bias_grad_;
  Tensor cached_input_;

  Tensor forward(const Tensor& input) {
    cached_input_ = input;
    const std::int64_t N = input.dim(0), H = input.dim(2), W = input.dim(3);
    const std::int64_t Ho = (H + 2 * padding_ - kernel_) / stride_ + 1;
    const std::int64_t Wo = (W + 2 * padding_ - kernel_) / stride_ + 1;
    Tensor out({N, out_channels_, Ho, Wo});

    const std::int64_t cin_per_group = in_channels_ / groups_;
    const std::int64_t cout_per_group = out_channels_ / groups_;
    const float* x = input.data();
    const float* w = weight_.data();
    float* y = out.data();

    for (std::int64_t n = 0; n < N; ++n) {
      for (std::int64_t oc = 0; oc < out_channels_; ++oc) {
        const std::int64_t g = oc / cout_per_group;
        float* yp = y + (n * out_channels_ + oc) * Ho * Wo;
        const float b = has_bias_ ? bias_[static_cast<std::size_t>(oc)] : 0.0f;
        for (std::int64_t i = 0; i < Ho * Wo; ++i) yp[i] = b;
        for (std::int64_t ic = 0; ic < cin_per_group; ++ic) {
          const float* xp =
              x + (n * in_channels_ + g * cin_per_group + ic) * H * W;
          const float* wp =
              w + ((oc * cin_per_group) + ic) * kernel_ * kernel_;
          for (std::int64_t ho = 0; ho < Ho; ++ho) {
            const std::int64_t h0 = ho * stride_ - padding_;
            for (std::int64_t wo = 0; wo < Wo; ++wo) {
              const std::int64_t w0 = wo * stride_ - padding_;
              float acc = 0.0f;
              for (int kh = 0; kh < kernel_; ++kh) {
                const std::int64_t h = h0 + kh;
                if (h < 0 || h >= H) continue;
                const float* xrow = xp + h * W;
                const float* wrow = wp + kh * kernel_;
                for (int kw = 0; kw < kernel_; ++kw) {
                  const std::int64_t ww = w0 + kw;
                  if (ww < 0 || ww >= W) continue;
                  acc += xrow[ww] * wrow[kw];
                }
              }
              yp[ho * Wo + wo] += acc;
            }
          }
        }
      }
    }
    return out;
  }

  Tensor backward(const Tensor& grad_output) {
    const Tensor& input = cached_input_;
    const std::int64_t N = input.dim(0), H = input.dim(2), W = input.dim(3);
    const std::int64_t Ho = grad_output.dim(2), Wo = grad_output.dim(3);
    Tensor grad_input(input.shape());

    const std::int64_t cin_per_group = in_channels_ / groups_;
    const std::int64_t cout_per_group = out_channels_ / groups_;
    const float* x = input.data();
    const float* w = weight_.data();
    const float* g = grad_output.data();
    float* gx = grad_input.data();
    float* gw = weight_grad_.data();
    float* gb = bias_grad_.data();

    for (std::int64_t n = 0; n < N; ++n) {
      for (std::int64_t oc = 0; oc < out_channels_; ++oc) {
        const std::int64_t grp = oc / cout_per_group;
        const float* gp = g + (n * out_channels_ + oc) * Ho * Wo;
        if (has_bias_) {
          float acc = 0.0f;
          for (std::int64_t i = 0; i < Ho * Wo; ++i) acc += gp[i];
          gb[oc] += acc;
        }
        for (std::int64_t ic = 0; ic < cin_per_group; ++ic) {
          const std::int64_t in_c = grp * cin_per_group + ic;
          const float* xp = x + (n * in_channels_ + in_c) * H * W;
          float* gxp = gx + (n * in_channels_ + in_c) * H * W;
          const float* wp = w + ((oc * cin_per_group) + ic) * kernel_ * kernel_;
          float* gwp = gw + ((oc * cin_per_group) + ic) * kernel_ * kernel_;
          for (std::int64_t ho = 0; ho < Ho; ++ho) {
            const std::int64_t h0 = ho * stride_ - padding_;
            for (std::int64_t wo = 0; wo < Wo; ++wo) {
              const std::int64_t w0 = wo * stride_ - padding_;
              const float go = gp[ho * Wo + wo];
              if (go == 0.0f) continue;
              for (int kh = 0; kh < kernel_; ++kh) {
                const std::int64_t h = h0 + kh;
                if (h < 0 || h >= H) continue;
                for (int kw = 0; kw < kernel_; ++kw) {
                  const std::int64_t ww = w0 + kw;
                  if (ww < 0 || ww >= W) continue;
                  gwp[kh * kernel_ + kw] += go * xp[h * W + ww];
                  gxp[h * W + ww] += go * wp[kh * kernel_ + kw];
                }
              }
            }
          }
        }
      }
    }
    return grad_input;
  }
};

struct RefLinear {
  std::int64_t in_, out_;
  Tensor weight_, bias_, weight_grad_, bias_grad_;
  Tensor cached_input_;

  Tensor forward(const Tensor& input) {
    cached_input_ = input;
    const std::int64_t batch = input.dim(0);
    Tensor out({batch, out_});
    const float* x = input.data();
    const float* w = weight_.data();
    float* y = out.data();
    for (std::int64_t n = 0; n < batch; ++n) {
      const float* xn = x + n * in_;
      float* yn = y + n * out_;
      for (std::int64_t o = 0; o < out_; ++o) {
        const float* wo = w + o * in_;
        float acc = bias_[static_cast<std::size_t>(o)];
        for (std::int64_t i = 0; i < in_; ++i) acc += xn[i] * wo[i];
        yn[o] = acc;
      }
    }
    return out;
  }

  Tensor backward(const Tensor& grad_output) {
    const std::int64_t batch = cached_input_.dim(0);
    Tensor grad_input({batch, in_});
    const float* x = cached_input_.data();
    const float* g = grad_output.data();
    const float* w = weight_.data();
    float* gx = grad_input.data();
    float* gw = weight_grad_.data();
    float* gb = bias_grad_.data();
    for (std::int64_t n = 0; n < batch; ++n) {
      const float* xn = x + n * in_;
      const float* gn = g + n * out_;
      float* gxn = gx + n * in_;
      for (std::int64_t o = 0; o < out_; ++o) {
        const float go = gn[o];
        gb[o] += go;
        const float* wo = w + o * in_;
        float* gwo = gw + o * in_;
        for (std::int64_t i = 0; i < in_; ++i) {
          gwo[i] += go * xn[i];
          gxn[i] += go * wo[i];
        }
      }
    }
    return grad_input;
  }
};

// ---- inputs ----

/// Normal values; `zero_share` of them exact zeros, and with `negative_zeros`
/// a few -0.0f among them.
Tensor draw(Shape shape, Rng& rng, double zero_share, bool negative_zeros) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i) {
    const double u = rng.uniform();
    if (u < zero_share)
      t[i] = negative_zeros && u < zero_share * 0.1 ? -0.0f : 0.0f;
    else
      t[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }
  return t;
}

/// Post-ReLU activations: negatives clipped to exact zeros.
Tensor activations(Shape shape, Rng& rng) {
  Tensor t = draw(std::move(shape), rng, 0.05, true);
  for (std::size_t i = 0; i < t.numel(); ++i)
    if (t[i] < 0.0f) t[i] = 0.0f;
  return t;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

/// First differing flat index, for the failure message.
std::string first_difference(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return "shapes differ";
  for (std::size_t i = 0; i < a.numel(); ++i)
    if (std::memcmp(a.data() + i, b.data() + i, sizeof(float)) != 0)
      return "index " + std::to_string(i) + ": " + std::to_string(a[i]) +
             " vs " + std::to_string(b[i]);
  return "none";
}

#define EXPECT_SAME_BITS(a, b, what) \
  EXPECT_TRUE(same_bits(a, b)) << (what) << ": " << first_difference(a, b)

// ---- Conv2d ----

struct ConvCase {
  int kernel, stride, padding;
  int groups_kind;  // 0: groups 1, 1: groups 2, 2: depthwise (groups = C)
  bool bias;
  std::int64_t batch;
};

std::string describe(const ConvCase& c, std::int64_t cin, std::int64_t cout,
                     std::int64_t groups, std::int64_t H, std::int64_t W) {
  return "k" + std::to_string(c.kernel) + " s" + std::to_string(c.stride) +
         " p" + std::to_string(c.padding) + " g" + std::to_string(groups) +
         (c.bias ? " bias" : " nobias") + " n" + std::to_string(c.batch) +
         " " + std::to_string(cin) + "->" + std::to_string(cout) + " " +
         std::to_string(H) + "x" + std::to_string(W);
}

void check_conv(const ConvCase& c, std::uint64_t seed) {
  Rng rng(seed);
  std::int64_t cin = 0, groups = 1;
  switch (c.groups_kind) {
    case 0:
      cin = 1 + static_cast<std::int64_t>(rng.uniform() * 7);  // 1..7
      groups = 1;
      break;
    case 1:
      cin = 2 * (1 + static_cast<std::int64_t>(rng.uniform() * 3));  // 2..6
      groups = 2;
      break;
    default:
      cin = 1 + static_cast<std::int64_t>(rng.uniform() * 9);  // 1..9
      groups = cin;
      break;
  }
  const std::int64_t cout =
      groups * (1 + static_cast<std::int64_t>(rng.uniform() * 3)) +
      (groups == 1 ? static_cast<std::int64_t>(rng.uniform() * 6) : 0);
  const std::int64_t H =
      c.kernel + static_cast<std::int64_t>(rng.uniform() * 9);
  const std::int64_t W =
      c.kernel + static_cast<std::int64_t>(rng.uniform() * 11);
  const std::string what = describe(c, cin, cout, groups, H, W);
  SCOPED_TRACE(what);

  Rng init(seed ^ 0x5EED);
  Conv2d conv(cin, cout, c.kernel, c.stride, c.padding, groups, c.bias, init);
  std::vector<ParamRef> params;
  std::vector<BufferRef> buffers;
  conv.collect("", params, buffers);
  // Non-zero grad buffers: the grads must accumulate onto them.
  for (const ParamRef& p : params)
    *p.grad = draw(p.grad->shape(), rng, 0.0, false);

  RefConv ref{cin,
              cout,
              groups,
              c.kernel,
              c.stride,
              c.padding,
              c.bias,
              *params[0].value,
              c.bias ? *params[1].value : Tensor({cout}),
              *params[0].grad,
              c.bias ? *params[1].grad : Tensor({cout}),
              Tensor()};

  for (int call = 0; call < 2; ++call) {
    const Tensor x = activations({c.batch, cin, H, W}, rng);
    const Tensor y = conv.forward(x, /*training=*/true);
    const Tensor y_ref = ref.forward(x);
    EXPECT_SAME_BITS(y, y_ref, "forward");
    // The eval forward is the same computation and leaves no state behind.
    EXPECT_SAME_BITS(conv.forward(x, /*training=*/false), y_ref, "eval");
    const Tensor g = draw(y_ref.shape(), rng, 0.3, false);
    EXPECT_SAME_BITS(conv.backward(g), ref.backward(g), "grad input");
    EXPECT_SAME_BITS(*params[0].grad, ref.weight_grad_, "weight grad");
    if (c.bias) {
      EXPECT_SAME_BITS(*params[1].grad, ref.bias_grad_, "bias grad");
    }
  }
}

TEST(NnKernels, Conv2dMatchesDirectLoopsBitForBit) {
  std::uint64_t seed = 1;
  int cases = 0;
  for (const int kernel : {1, 3, 5})
    for (const int stride : {1, 2})
      for (const int padding : {0, 1, 2})
        for (const int groups_kind : {0, 1, 2})
          for (const bool bias : {true, false})
            for (const std::int64_t batch : {1, 2, 17}) {
              check_conv({kernel, stride, padding, groups_kind, bias, batch},
                         seed++);
              ++cases;
            }
  EXPECT_EQ(cases, 324);
}

/// The MobileNetV2-tiny and ResNet-tiny shapes at their real sizes, where
/// the panel kernel's full tiles and cache blocks are exercised.
TEST(NnKernels, Conv2dMatchesDirectLoopsOnModelShapes) {
  struct Shape2 {
    std::int64_t cin, cout, groups, hw;
    int kernel, stride, padding;
  };
  const Shape2 shapes[] = {
      {3, 8, 1, 32, 3, 1, 1},    {8, 32, 1, 32, 1, 1, 0},
      {32, 32, 32, 32, 3, 2, 1}, {32, 16, 1, 16, 1, 1, 0},
      {64, 64, 64, 8, 3, 1, 1},  {24, 64, 1, 8, 1, 1, 0},
      {32, 128, 1, 16, 1, 2, 0}, {16, 16, 1, 16, 3, 2, 1},
  };
  std::uint64_t seed = 1000;
  for (const Shape2& s : shapes) {
    SCOPED_TRACE(std::to_string(s.cin) + "->" + std::to_string(s.cout) +
                 " k" + std::to_string(s.kernel) + " hw" +
                 std::to_string(s.hw));
    Rng rng(seed++);
    Conv2d conv(s.cin, s.cout, s.kernel, s.stride, s.padding, s.groups, false,
                rng);
    std::vector<ParamRef> params;
    std::vector<BufferRef> buffers;
    conv.collect("", params, buffers);
    RefConv ref{s.cin,   s.cout,           s.groups, s.kernel,
                s.stride, s.padding,       false,    *params[0].value,
                Tensor({s.cout}), *params[0].grad, Tensor({s.cout}), Tensor()};
    const Tensor x = activations({4, s.cin, s.hw, s.hw}, rng);
    const Tensor y_ref = ref.forward(x);
    EXPECT_SAME_BITS(conv.forward(x, true), y_ref, "forward");
    const Tensor g = draw(y_ref.shape(), rng, 0.2, false);
    EXPECT_SAME_BITS(conv.backward(g), ref.backward(g), "grad input");
    EXPECT_SAME_BITS(*params[0].grad, ref.weight_grad_, "weight grad");
  }
}

// ---- Linear ----

TEST(NnKernels, LinearMatchesDirectLoopsBitForBit) {
  std::uint64_t seed = 2000;
  for (const std::int64_t batch : {1, 2, 17})
    for (const std::int64_t in : {1, 5, 13, 64, 300})
      for (const std::int64_t out : {1, 3, 10, 17, 40}) {
        SCOPED_TRACE("n" + std::to_string(batch) + " " + std::to_string(in) +
                     "->" + std::to_string(out));
        Rng rng(seed++);
        Linear linear(in, out, rng);
        std::vector<ParamRef> params;
        std::vector<BufferRef> buffers;
        linear.collect("", params, buffers);
        for (const ParamRef& p : params)
          *p.grad = draw(p.grad->shape(), rng, 0.0, false);
        RefLinear ref{in,           out,           *params[0].value,
                      *params[1].value, *params[0].grad, *params[1].grad,
                      Tensor()};
        for (int call = 0; call < 2; ++call) {
          const Tensor x = activations({batch, in}, rng);
          const Tensor y_ref = ref.forward(x);
          EXPECT_SAME_BITS(linear.forward(x, true), y_ref, "forward");
          EXPECT_SAME_BITS(linear.forward(x, false), y_ref, "eval");
          const Tensor g = draw(y_ref.shape(), rng, 0.3, false);
          EXPECT_SAME_BITS(linear.backward(g), ref.backward(g), "grad input");
          EXPECT_SAME_BITS(*params[0].grad, ref.weight_grad_, "weight grad");
          EXPECT_SAME_BITS(*params[1].grad, ref.bias_grad_, "bias grad");
        }
      }
}

}  // namespace
}  // namespace fedsz::nn
