#include "nn/conv.hpp"

#include <algorithm>
#include <vector>

#include "nn/kernels.hpp"
#include "nn/layers.hpp"

namespace fedsz::nn {

namespace {

/// Floats of gradient columns Conv2d::backward builds at once.
constexpr std::int64_t kColsBudget = 32 * 1024;

/// Output indices o in [lo, hi) whose input index o * stride - pad + tap
/// falls inside [0, in).
struct Span {
  std::int64_t lo, hi;
};
Span valid_outputs(int tap, int stride, int pad, std::int64_t in,
                   std::int64_t out) {
  const std::int64_t first = pad - tap;     // o * stride >= first
  const std::int64_t last = in - 1 + first;  // o * stride <= last
  const std::int64_t lo = first <= 0 ? 0 : (first + stride - 1) / stride;
  const std::int64_t hi = last < 0 ? 0 : std::min(out, last / stride + 1);
  return {lo, std::max(lo, hi)};
}

/// One image's shape through one convolution.
struct Geometry {
  std::int64_t H, W, Ho, Wo;
  int k, s, p;
  std::int64_t in_plane() const { return H * W; }
  std::int64_t out_plane() const { return Ho * Wo; }
  std::int64_t frame_w() const { return W + 2 * p; }
  std::int64_t frame_plane() const { return (H + 2 * p) * frame_w(); }
};

/// x's plane in the middle of a zero frame padded by p on every side, so
/// every kernel window lies inside the frame.
void pad_plane(const float* x, const Geometry& g, float* frame) {
  const std::int64_t fw = g.frame_w();
  std::fill(frame, frame + g.frame_plane(), 0.0f);
  for (std::int64_t h = 0; h < g.H; ++h)
    std::copy(x + h * g.W, x + (h + 1) * g.W, frame + (h + g.p) * fw + g.p);
}

/// cols[(c * k + kh) * k + kw][ho * Wo + wo] = x[c][ho*s-p+kh][wo*s-p+kw],
/// zero where the window leaves the image.
void im2col(const float* x, std::int64_t channels, const Geometry& g,
            float* cols) {
  const std::int64_t plane = g.out_plane();
  float* row = cols;
  for (std::int64_t c = 0; c < channels; ++c) {
    const float* xp = x + c * g.in_plane();
    for (int kh = 0; kh < g.k; ++kh) {
      const Span rows = valid_outputs(kh, g.s, g.p, g.H, g.Ho);
      for (int kw = 0; kw < g.k; ++kw, row += plane) {
        const Span span = valid_outputs(kw, g.s, g.p, g.W, g.Wo);
        std::fill(row, row + plane, 0.0f);
        for (std::int64_t ho = rows.lo; ho < rows.hi; ++ho) {
          const float* xr = xp + (ho * g.s - g.p + kh) * g.W;
          float* out = row + ho * g.Wo;
          for (std::int64_t wo = span.lo; wo < span.hi; ++wo)
            out[wo] = xr[wo * g.s - g.p + kw];
        }
      }
    }
  }
}

/// The gradient-side im2col of output channels [first, first + count): row
/// (oc - first, kk-1-t) for tap t = kh * k + kw holds g[oc] scattered to
/// the input pixels that tap reads, zero elsewhere. Taps run in reverse so
/// that for one input pixel they come in the order the output positions
/// reading it ascend.
void grad_cols(const float* g, std::int64_t first, std::int64_t count,
               const Geometry& geo, float* cols) {
  const std::int64_t plane = geo.in_plane();
  const int kk = geo.k * geo.k;
  for (std::int64_t oc = 0; oc < count; ++oc) {
    const float* gp = g + (first + oc) * geo.out_plane();
    for (int kh = 0; kh < geo.k; ++kh) {
      const Span rows = valid_outputs(kh, geo.s, geo.p, geo.H, geo.Ho);
      for (int kw = 0; kw < geo.k; ++kw) {
        const Span span = valid_outputs(kw, geo.s, geo.p, geo.W, geo.Wo);
        float* row = cols + (oc * kk + (kk - 1 - (kh * geo.k + kw))) * plane;
        std::fill(row, row + plane, 0.0f);
        for (std::int64_t ho = rows.lo; ho < rows.hi; ++ho) {
          float* out = row + (ho * geo.s - geo.p + kh) * geo.W;
          const float* gr = gp + ho * geo.Wo;
          for (std::int64_t wo = span.lo; wo < span.hi; ++wo)
            out[wo * geo.s - geo.p + kw] = gr[wo];
        }
      }
    }
  }
}

}  // namespace

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels, int kernel,
               int stride, int padding, std::int64_t groups, bool bias,
               Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      groups_(groups),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      has_bias_(bias),
      weight_({out_channels, in_channels / groups, kernel, kernel}),
      bias_({out_channels}),
      weight_grad_({out_channels, in_channels / groups, kernel, kernel}),
      bias_grad_({out_channels}) {
  if (in_channels % groups != 0 || out_channels % groups != 0)
    throw InvalidArgument("Conv2d: channels must divide groups");
  if (kernel <= 0 || stride <= 0 || padding < 0)
    throw InvalidArgument("Conv2d: bad kernel/stride/padding");
  const std::int64_t fan_in = (in_channels / groups) * kernel * kernel;
  kaiming_uniform(weight_, fan_in, rng);
  if (has_bias_) kaiming_uniform(bias_, fan_in, rng);
}

Tensor Conv2d::forward(const Tensor& input, bool training) {
  if (input.rank() != 4 || input.dim(1) != in_channels_)
    throw InvalidArgument("Conv2d: expected NCHW with C=" +
                          std::to_string(in_channels_) + ", got " +
                          input.shape_string());
  const std::int64_t N = input.dim(0), H = input.dim(2), W = input.dim(3);
  const std::int64_t Ho = (H + 2 * padding_ - kernel_) / stride_ + 1;
  const std::int64_t Wo = (W + 2 * padding_ - kernel_) / stride_ + 1;
  if (Ho <= 0 || Wo <= 0) throw InvalidArgument("Conv2d: input too small");
  const Geometry geo{H, W, Ho, Wo, kernel_, stride_, padding_};
  Tensor out({N, out_channels_, Ho, Wo});

  const std::int64_t cin_per_group = in_channels_ / groups_;
  const std::int64_t cout_per_group = out_channels_ / groups_;
  const std::int64_t kk = kernel_ * kernel_;
  const std::int64_t depth = cin_per_group * kk;
  const std::int64_t in_plane = geo.in_plane(), out_plane = geo.out_plane();
  const bool pointwise = kernel_ == 1 && stride_ == 1 && padding_ == 0;
  const float* w = weight_.data();
  // Per-call buffers sized by one image: im2col rows (dense) or the
  // zero-padded input plane (grouped).
  std::vector<float> cols(groups_ == 1 && !pointwise ? depth * out_plane : 0);
  std::vector<float> frame(groups_ > 1 ? geo.frame_plane() : 0);

  for (std::int64_t n = 0; n < N; ++n) {
    const float* xn = input.data() + n * in_channels_ * in_plane;
    float* yn = out.data() + n * out_channels_ * out_plane;
    // `+ 0.0f` turns a -0.0f bias into +0.0f: the direct loops add a
    // per-channel sum that is never -0.0f, so only from a +0.0f start does
    // adding a 1x1 product straight in give the same bits.
    for (std::int64_t oc = 0; oc < out_channels_; ++oc)
      std::fill(yn + oc * out_plane, yn + (oc + 1) * out_plane,
                (has_bias_ ? bias_[static_cast<std::size_t>(oc)] : 0.0f) +
                    0.0f);
    if (groups_ == 1) {
      if (!pointwise) im2col(xn, in_channels_, geo, cols.data());
      kernels::panel(out_channels_, out_plane, depth, kernel_ == 1 ? 0 : kk,
                     w, depth, pointwise ? xn : cols.data(), out_plane, yn,
                     out_plane);
      continue;
    }
    // Grouped and depthwise: each output channel adds its group's input
    // channels, each as one kernel-window sum from +0.0f, taken over a
    // zero-padded copy of the plane (padding taps add exact zeros).
    for (std::int64_t oc = 0; oc < out_channels_; ++oc) {
      const std::int64_t grp = oc / cout_per_group;
      for (std::int64_t ic = 0; ic < cin_per_group; ++ic) {
        pad_plane(xn + (grp * cin_per_group + ic) * in_plane, geo,
                  frame.data());
        kernels::window_sums(frame.data(), geo.frame_w(),
                             w + (oc * cin_per_group + ic) * kk, kernel_,
                             stride_, Ho, Wo, yn + oc * out_plane);
      }
    }
  }
  if (training) cached_input_ = input;
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  const Tensor& input = cached_input_;
  const std::int64_t N = input.dim(0), H = input.dim(2), W = input.dim(3);
  const std::int64_t Ho = (H + 2 * padding_ - kernel_) / stride_ + 1;
  const std::int64_t Wo = (W + 2 * padding_ - kernel_) / stride_ + 1;
  if (grad_output.rank() != 4 || grad_output.dim(0) != N ||
      grad_output.dim(1) != out_channels_ || grad_output.dim(2) != Ho ||
      grad_output.dim(3) != Wo)
    throw InvalidArgument("Conv2d::backward: bad grad shape");
  const Geometry geo{H, W, Ho, Wo, kernel_, stride_, padding_};
  Tensor grad_input(input.shape());

  const std::int64_t cin_per_group = in_channels_ / groups_;
  const std::int64_t cout_per_group = out_channels_ / groups_;
  const std::int64_t kk = kernel_ * kernel_;
  const std::int64_t depth = cin_per_group * kk;
  const std::int64_t in_plane = geo.in_plane(), out_plane = geo.out_plane();
  const bool pointwise = kernel_ == 1 && stride_ == 1 && padding_ == 0;
  const float* x = input.data();
  const float* w = weight_.data();
  const float* g = grad_output.data();
  float* gx = grad_input.data();
  float* gw = weight_grad_.data();
  float* gb = bias_grad_.data();

  if (has_bias_) {
    for (std::int64_t n = 0; n < N; ++n) {
      for (std::int64_t oc = 0; oc < out_channels_; ++oc) {
        const float* gp = g + (n * out_channels_ + oc) * out_plane;
        float acc = 0.0f;
        for (std::int64_t i = 0; i < out_plane; ++i) acc += gp[i];
        gb[oc] += acc;
      }
    }
  }

  if (groups_ == 1) {
    // grad-input is W^T times the gradient's columns: pack W as
    // [ic][oc][reversed tap] so each input pixel sums oc ascending and,
    // within one oc, its taps in the order the direct loop met them.
    const std::int64_t gx_depth = out_channels_ * kk;
    std::vector<float> packed(in_channels_ * gx_depth);
    for (std::int64_t ic = 0; ic < in_channels_; ++ic)
      for (std::int64_t oc = 0; oc < out_channels_; ++oc)
        for (std::int64_t t = 0; t < kk; ++t)
          packed[ic * gx_depth + oc * kk + (kk - 1 - t)] =
              w[(oc * in_channels_ + ic) * kk + t];
    // Grad-input columns are built a block of output channels at a time;
    // the blocks run oc ascending into the same gx, so each pixel keeps its
    // order while the buffer stays small.
    const std::int64_t block = std::clamp<std::int64_t>(
        kColsBudget / (kk * in_plane), 1, out_channels_);
    std::vector<float> cols_t(depth * out_plane);
    std::vector<float> cols(pointwise ? 0 : depth * out_plane);
    std::vector<float> gcols(pointwise ? 0 : block * kk * in_plane);
    for (std::int64_t n = 0; n < N; ++n) {
      const float* xn = x + n * in_channels_ * in_plane;
      const float* gn = g + n * out_channels_ * out_plane;
      // Weight grad: gw[oc][(ic, tap)] over this image's (ho, wo) ascending.
      if (pointwise) {
        kernels::transpose(xn, in_channels_, in_plane, in_plane,
                           cols_t.data());
      } else {
        im2col(xn, in_channels_, geo, cols.data());
        kernels::transpose(cols.data(), depth, out_plane, out_plane,
                           cols_t.data());
      }
      kernels::panel(out_channels_, depth, out_plane, 0, gn, out_plane,
                     cols_t.data(), depth, gw, depth);
      float* gxn = gx + n * in_channels_ * in_plane;
      if (pointwise) {
        kernels::panel(in_channels_, in_plane, gx_depth, 0, packed.data(),
                       gx_depth, gn, in_plane, gxn, in_plane);
        continue;
      }
      for (std::int64_t oc = 0; oc < out_channels_; oc += block) {
        const std::int64_t count = std::min(block, out_channels_ - oc);
        grad_cols(gn, oc, count, geo, gcols.data());
        kernels::panel(in_channels_, in_plane, count * kk, 0,
                       packed.data() + oc * kk, gx_depth, gcols.data(),
                       in_plane, gxn, in_plane);
      }
    }
    return grad_input;
  }

  // Grouped and depthwise, one (oc, ic) window at a time. Weight grads sum
  // (ho, wo) ascending per tap over the zero-padded plane; grad-input takes
  // taps in reverse so every input pixel sees them in the order the output
  // positions ascend.
  std::vector<float> frame(geo.frame_plane());
  for (std::int64_t n = 0; n < N; ++n) {
    for (std::int64_t oc = 0; oc < out_channels_; ++oc) {
      const std::int64_t grp = oc / cout_per_group;
      const float* gp = g + (n * out_channels_ + oc) * out_plane;
      for (std::int64_t ic = 0; ic < cin_per_group; ++ic) {
        const std::int64_t in_c = grp * cin_per_group + ic;
        const float* xp = x + (n * in_channels_ + in_c) * in_plane;
        float* gxp = gx + (n * in_channels_ + in_c) * in_plane;
        const float* wp = w + (oc * cin_per_group + ic) * kk;
        pad_plane(xp, geo, frame.data());
        kernels::window_grads(frame.data(), geo.frame_w(), gp, kernel_,
                              stride_, Ho, Wo,
                              gw + (oc * cin_per_group + ic) * kk);
        for (int kh = kernel_ - 1; kh >= 0; --kh) {
          const Span rows = valid_outputs(kh, stride_, padding_, H, Ho);
          for (int kw = kernel_ - 1; kw >= 0; --kw) {
            const Span span = valid_outputs(kw, stride_, padding_, W, Wo);
            const float wv = wp[kh * kernel_ + kw];
            for (std::int64_t ho = rows.lo; ho < rows.hi; ++ho) {
              float* gxr = gxp + (ho * stride_ - padding_ + kh) * W;
              const float* gr = gp + ho * Wo;
              for (std::int64_t wo = span.lo; wo < span.hi; ++wo)
                gxr[wo * stride_ - padding_ + kw] += gr[wo] * wv;
            }
          }
        }
      }
    }
  }
  return grad_input;
}

void Conv2d::collect(const std::string& prefix, std::vector<ParamRef>& params,
                     std::vector<BufferRef>& /*buffers*/) {
  params.push_back({prefix + "weight", &weight_, &weight_grad_});
  if (has_bias_) params.push_back({prefix + "bias", &bias_, &bias_grad_});
}

}  // namespace fedsz::nn
