// 2D convolution over NCHW tensors with stride, zero padding and grouped
// channels (groups == in_channels gives the depthwise convolutions of
// MobileNetV2). Dense convolutions run on the panel kernel (nn/kernels.hpp):
// forward through per-image im2col rows (1x1 stride-1 reads the image as
// is), weight grad through the transposed im2col, input grad through a
// gradient-side im2col against the packed weights. Grouped and depthwise
// convolutions run window kernels over a zero-padded copy of each input
// plane (grad-input slides each tap along whole rows). Every output keeps
// the reduction order of the direct loops, so results are bit-identical:
//   forward      bias, then += (sum of the taps in (kh, kw) order from
//                +0.0f) per input channel, ascending;
//   weight grad  (n, ho, wo) ascending;
//   input grad   oc ascending, within one oc the taps in (kh desc, kw desc)
//                order, i.e. (ho, wo) ascending.
#pragma once

#include "nn/module.hpp"
#include "util/rng.hpp"

namespace fedsz::nn {

class Conv2d final : public Module {
 public:
  Conv2d(std::int64_t in_channels, std::int64_t out_channels, int kernel,
         int stride, int padding, std::int64_t groups, bool bias, Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect(const std::string& prefix, std::vector<ParamRef>& params,
               std::vector<BufferRef>& buffers) override;
  std::string type_name() const override { return "Conv2d"; }

  std::int64_t in_channels() const { return in_channels_; }
  std::int64_t out_channels() const { return out_channels_; }

 private:
  std::int64_t in_channels_, out_channels_, groups_;
  int kernel_, stride_, padding_;
  bool has_bias_;
  Tensor weight_;  // {out_c, in_c/groups, k, k}
  Tensor bias_;    // {out_c}
  Tensor weight_grad_, bias_grad_;
  Tensor cached_input_;
};

}  // namespace fedsz::nn
