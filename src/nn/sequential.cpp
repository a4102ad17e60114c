#include "nn/sequential.hpp"

namespace fedsz::nn {

Tensor Sequential::forward(const Tensor& input, bool training) {
  Tensor x = input;
  for (const ModulePtr& child : children_) x = child->forward(x, training);
  return x;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  for (auto it = children_.rbegin(); it != children_.rend(); ++it)
    g = (*it)->backward(g);
  return g;
}

void Sequential::collect(const std::string& prefix,
                         std::vector<ParamRef>& params,
                         std::vector<BufferRef>& buffers) {
  for (std::size_t i = 0; i < children_.size(); ++i)
    children_[i]->collect(prefix + std::to_string(i) + ".", params, buffers);
}

Tensor Residual::forward(const Tensor& input, bool training) {
  Tensor main_out = main_->forward(input, training);
  Tensor shortcut_out =
      shortcut_ ? shortcut_->forward(input, training) : input;
  if (!main_out.same_shape(shortcut_out))
    throw InvalidArgument("Residual: branch shape mismatch " +
                          main_out.shape_string() + " vs " +
                          shortcut_out.shape_string());
  main_out += shortcut_out;
  if (post_relu_) {
    const std::size_t count = main_out.numel();
    float* y = main_out.data();
    if (training) {
      relu_mask_.resize(count);
      for (std::size_t i = 0; i < count; ++i)
        relu_mask_[i] = static_cast<std::uint8_t>(y[i] > 0.0f);
    }
    for (std::size_t i = 0; i < count; ++i) y[i] = y[i] > 0.0f ? y[i] : 0.0f;
  }
  return main_out;
}

Tensor Residual::backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  if (post_relu_) {
    if (g.numel() != relu_mask_.size())
      throw InvalidArgument("Residual::backward: size mismatch");
    float* gp = g.data();
    for (std::size_t i = 0; i < g.numel(); ++i)
      gp[i] = relu_mask_[i] ? gp[i] : 0.0f;
  }
  Tensor grad_input = main_->backward(g);
  if (shortcut_) {
    grad_input += shortcut_->backward(g);
  } else {
    grad_input += g;
  }
  return grad_input;
}

void Residual::collect(const std::string& prefix,
                       std::vector<ParamRef>& params,
                       std::vector<BufferRef>& buffers) {
  main_->collect(prefix + "main.", params, buffers);
  if (shortcut_) shortcut_->collect(prefix + "shortcut.", params, buffers);
}

}  // namespace fedsz::nn
