// Evaluation metrics: Top-1 accuracy, the quantity reported throughout the
// paper's tables and accuracy figures.
#pragma once

#include <span>

#include "tensor/tensor.hpp"

namespace fedsz::nn {

/// Number of rows whose argmax matches the label.
std::size_t top1_correct(const Tensor& logits, std::span<const int> labels);

/// Fraction of rows whose argmax matches the label, in [0, 1].
double top1_accuracy(const Tensor& logits, std::span<const int> labels);

}  // namespace fedsz::nn
