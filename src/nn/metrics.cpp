#include "nn/metrics.hpp"

#include "util/common.hpp"

namespace fedsz::nn {

std::size_t top1_correct(const Tensor& logits, std::span<const int> labels) {
  if (logits.rank() != 2)
    throw InvalidArgument("top1_correct: expected {N, C}");
  const std::int64_t N = logits.dim(0), C = logits.dim(1);
  if (labels.size() != static_cast<std::size_t>(N))
    throw InvalidArgument("top1_correct: label count mismatch");
  std::size_t correct = 0;
  for (std::int64_t n = 0; n < N; ++n) {
    const float* row = logits.data() + n * C;
    std::int64_t best = 0;
    for (std::int64_t c = 1; c < C; ++c)
      if (row[c] > row[best]) best = c;
    if (best == labels[static_cast<std::size_t>(n)]) ++correct;
  }
  return correct;
}

double top1_accuracy(const Tensor& logits, std::span<const int> labels) {
  const std::size_t correct = top1_correct(logits, labels);
  if (labels.empty()) return 0.0;
  return static_cast<double>(correct) / static_cast<double>(labels.size());
}

}  // namespace fedsz::nn
