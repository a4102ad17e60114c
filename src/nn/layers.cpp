#include "nn/layers.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "nn/kernels.hpp"

namespace fedsz::nn {

void kaiming_uniform(Tensor& tensor, std::int64_t fan_in, Rng& rng) {
  // ReLU-gain Kaiming: variance 2/fan_in, i.e. U(-sqrt(6/fan_in), +...).
  // Networks without BatchNorm (the AlexNet analogue) depend on this being
  // variance-preserving; smaller gains collapse deep activations.
  const double bound =
      fan_in > 0 ? std::sqrt(6.0 / static_cast<double>(fan_in)) : 1.0;
  for (std::size_t i = 0; i < tensor.numel(); ++i)
    tensor[i] = static_cast<float>(rng.uniform(-bound, bound));
}

// ---- Model ----

std::vector<ParamRef> Model::parameters() {
  std::vector<ParamRef> params;
  std::vector<BufferRef> buffers;
  root_->collect("", params, buffers);
  return params;
}

std::vector<BufferRef> Model::buffers() {
  std::vector<ParamRef> params;
  std::vector<BufferRef> buffers;
  root_->collect("", params, buffers);
  return buffers;
}

std::size_t Model::parameter_count() {
  std::size_t n = 0;
  for (const ParamRef& p : parameters()) n += p.value->numel();
  return n;
}

void Model::zero_grad() {
  for (const ParamRef& p : parameters()) p.grad->fill(0.0f);
}

StateDict Model::state_dict() {
  std::vector<ParamRef> params;
  std::vector<BufferRef> buffers;
  root_->collect("", params, buffers);
  StateDict dict;
  for (const ParamRef& p : params) dict.set(p.name, *p.value);
  for (const BufferRef& b : buffers) dict.set(b.name, *b.value);
  return dict;
}

void Model::load_state_dict(const StateDict& dict) {
  std::vector<ParamRef> params;
  std::vector<BufferRef> buffers;
  root_->collect("", params, buffers);
  std::size_t loaded = 0;
  for (const ParamRef& p : params) {
    const Tensor& src = dict.get(p.name);
    if (!src.same_shape(*p.value))
      throw InvalidArgument("load_state_dict: shape mismatch for " + p.name);
    *p.value = src;
    ++loaded;
  }
  for (const BufferRef& b : buffers) {
    const Tensor& src = dict.get(b.name);
    if (!src.same_shape(*b.value))
      throw InvalidArgument("load_state_dict: shape mismatch for " + b.name);
    *b.value = src;
    ++loaded;
  }
  if (loaded != dict.size())
    throw InvalidArgument("load_state_dict: dict has extra entries");
}

// ---- Linear ----

Linear::Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng)
    : in_(in_features),
      out_(out_features),
      weight_({out_features, in_features}),
      bias_({out_features}),
      weight_grad_({out_features, in_features}),
      bias_grad_({out_features}) {
  kaiming_uniform(weight_, in_, rng);
  kaiming_uniform(bias_, in_, rng);
}

Tensor Linear::forward(const Tensor& input, bool training) {
  if (input.rank() != 2 || input.dim(1) != in_)
    throw InvalidArgument("Linear: expected input {N, " + std::to_string(in_) +
                          "}, got " + input.shape_string());
  const std::int64_t batch = input.dim(0);
  // y[n][o] = bias[o] + sum_i x[n][i] * w[o][i], i ascending: the panel
  // kernel computes y^T = W x^T across the batch, each row started from its
  // bias, so only the small x and y are transposed.
  std::vector<float> xt(in_ * batch), yt(out_ * batch);
  kernels::transpose(input.data(), batch, in_, in_, xt.data());
  for (std::int64_t o = 0; o < out_; ++o)
    std::fill(yt.begin() + o * batch, yt.begin() + (o + 1) * batch,
              bias_[static_cast<std::size_t>(o)]);
  kernels::panel(out_, batch, in_, 0, weight_.data(), in_, xt.data(), batch,
                 yt.data(), batch);
  Tensor out({batch, out_});
  kernels::transpose(yt.data(), out_, batch, batch, out.data());
  if (training) cached_input_ = input;
  return out;
}

Tensor Linear::backward(const Tensor& grad_output) {
  const std::int64_t batch = cached_input_.dim(0);
  if (grad_output.rank() != 2 || grad_output.dim(0) != batch ||
      grad_output.dim(1) != out_)
    throw InvalidArgument("Linear::backward: bad grad shape");
  Tensor grad_input({batch, in_});
  const float* x = cached_input_.data();
  const float* g = grad_output.data();
  const float* w = weight_.data();
  float* gx = grad_input.data();
  float* gw = weight_grad_.data();
  float* gb = bias_grad_.data();
  for (std::int64_t n = 0; n < batch; ++n)
    for (std::int64_t o = 0; o < out_; ++o) gb[o] += g[n * out_ + o];
  // gw[o][i] += g[n][o] * x[n][i] over n ascending; gx[n][i] sums
  // g[n][o] * w[o][i] over o ascending.
  std::vector<float> gt(batch * out_);
  kernels::transpose(g, batch, out_, out_, gt.data());
  kernels::panel(out_, in_, batch, 0, gt.data(), batch, x, in_, gw, in_);
  kernels::panel(batch, in_, out_, 0, g, out_, w, in_, gx, in_);
  return grad_input;
}

void Linear::collect(const std::string& prefix, std::vector<ParamRef>& params,
                     std::vector<BufferRef>& /*buffers*/) {
  params.push_back({prefix + "weight", &weight_, &weight_grad_});
  params.push_back({prefix + "bias", &bias_, &bias_grad_});
}

// ---- ReLU / ReLU6 ----

Tensor ReLU::forward(const Tensor& input, bool training) {
  // Negative values become +0.0f, values above the clamp become the clamp;
  // everything else (-0.0f and NaN included) passes unchanged.
  const float hi =
      clamp_ > 0.0f ? clamp_ : std::numeric_limits<float>::infinity();
  const std::size_t count = input.numel();
  const float* x = input.data();
  Tensor out(input.shape());
  float* y = out.data();
  for (std::size_t i = 0; i < count; ++i) {
    const float v = x[i] < 0.0f ? 0.0f : x[i];
    y[i] = v > hi ? hi : v;
  }
  if (training) {
    pass_mask_.resize(count);
    for (std::size_t i = 0; i < count; ++i)
      pass_mask_[i] = static_cast<std::uint8_t>(!(x[i] < 0.0f) & !(x[i] > hi));
  }
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  if (grad_output.numel() != pass_mask_.size())
    throw InvalidArgument("ReLU::backward: size mismatch");
  Tensor grad = grad_output;
  float* g = grad.data();
  for (std::size_t i = 0; i < grad.numel(); ++i)
    g[i] = pass_mask_[i] ? g[i] : 0.0f;
  return grad;
}

// ---- MaxPool2d ----

MaxPool2d::MaxPool2d(int kernel, int stride) : kernel_(kernel), stride_(stride) {
  if (kernel <= 0 || stride <= 0)
    throw InvalidArgument("MaxPool2d: kernel and stride must be positive");
}

Tensor MaxPool2d::forward(const Tensor& input, bool training) {
  if (input.rank() != 4) throw InvalidArgument("MaxPool2d: expected NCHW");
  const std::int64_t N = input.dim(0), C = input.dim(1), H = input.dim(2),
                     W = input.dim(3);
  const std::int64_t Ho = (H - kernel_) / stride_ + 1;
  const std::int64_t Wo = (W - kernel_) / stride_ + 1;
  if (Ho <= 0 || Wo <= 0) throw InvalidArgument("MaxPool2d: input too small");
  Tensor out({N, C, Ho, Wo});
  if (training) {
    input_shape_ = input.shape();
    argmax_.assign(out.numel(), 0);
  }
  const float* x = input.data();
  float* y = out.data();
  std::size_t oi = 0;
  for (std::int64_t n = 0; n < N; ++n) {
    for (std::int64_t c = 0; c < C; ++c) {
      const float* plane = x + (n * C + c) * H * W;
      for (std::int64_t ho = 0; ho < Ho; ++ho) {
        for (std::int64_t wo = 0; wo < Wo; ++wo, ++oi) {
          const std::int64_t h0 = ho * stride_, w0 = wo * stride_;
          float best = plane[h0 * W + w0];
          std::int64_t best_idx = h0 * W + w0;
          for (int kh = 0; kh < kernel_; ++kh) {
            for (int kw = 0; kw < kernel_; ++kw) {
              const std::int64_t idx = (h0 + kh) * W + (w0 + kw);
              if (plane[idx] > best) {
                best = plane[idx];
                best_idx = idx;
              }
            }
          }
          y[oi] = best;
          if (training)
            argmax_[oi] = static_cast<std::uint32_t>((n * C + c) * H * W +
                                                     best_idx);
        }
      }
    }
  }
  return out;
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  if (grad_output.numel() != argmax_.size())
    throw InvalidArgument("MaxPool2d::backward: size mismatch");
  Tensor grad_input(input_shape_);
  for (std::size_t i = 0; i < argmax_.size(); ++i)
    grad_input[argmax_[i]] += grad_output[i];
  return grad_input;
}

// ---- GlobalAvgPool ----

Tensor GlobalAvgPool::forward(const Tensor& input, bool training) {
  if (input.rank() != 4) throw InvalidArgument("GlobalAvgPool: expected NCHW");
  if (training) input_shape_ = input.shape();
  const std::int64_t N = input.dim(0), C = input.dim(1), H = input.dim(2),
                     W = input.dim(3);
  Tensor out({N, C, 1, 1});
  const float inv = 1.0f / static_cast<float>(H * W);
  const float* x = input.data();
  for (std::int64_t n = 0; n < N; ++n) {
    for (std::int64_t c = 0; c < C; ++c) {
      const float* plane = x + (n * C + c) * H * W;
      float acc = 0.0f;
      for (std::int64_t i = 0; i < H * W; ++i) acc += plane[i];
      out[static_cast<std::size_t>(n * C + c)] = acc * inv;
    }
  }
  return out;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_output) {
  const std::int64_t N = input_shape_[0], C = input_shape_[1],
                     H = input_shape_[2], W = input_shape_[3];
  if (grad_output.numel() != static_cast<std::size_t>(N * C))
    throw InvalidArgument("GlobalAvgPool::backward: size mismatch");
  Tensor grad_input(input_shape_);
  const float inv = 1.0f / static_cast<float>(H * W);
  float* gx = grad_input.data();
  for (std::int64_t n = 0; n < N; ++n) {
    for (std::int64_t c = 0; c < C; ++c) {
      const float g = grad_output[static_cast<std::size_t>(n * C + c)] * inv;
      float* plane = gx + (n * C + c) * H * W;
      for (std::int64_t i = 0; i < H * W; ++i) plane[i] = g;
    }
  }
  return grad_input;
}

// ---- Flatten ----

Tensor Flatten::forward(const Tensor& input, bool training) {
  if (input.rank() < 2) throw InvalidArgument("Flatten: rank must be >= 2");
  if (training) input_shape_ = input.shape();
  const std::int64_t batch = input.dim(0);
  const auto rest = static_cast<std::int64_t>(input.numel()) / batch;
  return input.reshaped({batch, rest});
}

Tensor Flatten::backward(const Tensor& grad_output) {
  return grad_output.reshaped(input_shape_);
}

// ---- Dropout ----

Dropout::Dropout(float probability, std::uint64_t seed)
    : probability_(probability), rng_(seed) {
  if (probability < 0.0f || probability >= 1.0f)
    throw InvalidArgument("Dropout: probability must be in [0, 1)");
}

Tensor Dropout::forward(const Tensor& input, bool training) {
  if (!training || probability_ == 0.0f) return input;
  Tensor out = input;
  scale_mask_.assign(input.numel(), 0.0f);
  const float keep_scale = 1.0f / (1.0f - probability_);
  for (std::size_t i = 0; i < out.numel(); ++i) {
    if (rng_.uniform() < probability_) {
      out[i] = 0.0f;
    } else {
      out[i] *= keep_scale;
      scale_mask_[i] = keep_scale;
    }
  }
  return out;
}

Tensor Dropout::backward(const Tensor& grad_output) {
  if (probability_ == 0.0f) return grad_output;
  if (grad_output.numel() != scale_mask_.size())
    throw InvalidArgument("Dropout::backward: size mismatch");
  Tensor grad = grad_output;
  for (std::size_t i = 0; i < grad.numel(); ++i) grad[i] *= scale_mask_[i];
  return grad;
}

}  // namespace fedsz::nn
