#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace roundbench {

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no values");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Quartiles::relative_iqr() const {
  return q2 != 0.0 ? (q3 - q1) / std::fabs(q2) : 0.0;
}

Quartiles quartiles(std::vector<double> values) {
  const std::size_t n = values.size();
  if (n < 2) throw std::invalid_argument("quartiles need two values");
  std::sort(values.begin(), values.end());
  // statistics.quantiles(method="exclusive"): m = n + 1, cut point i sits
  // at position i * m / 4 (1-based), interpolated between neighbours.
  const std::size_t m = n + 1;
  double cut[3];
  for (std::size_t i = 1; i <= 3; ++i) {
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - 4.0 * static_cast<double>(j);
    cut[i - 1] = (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  }
  return {cut[0], cut[1], cut[2]};
}

std::optional<double> supported_percentile(std::vector<double> values,
                                           double p) {
  if (!(p > 0.0 && p < 100.0))
    throw std::invalid_argument("percentile must lie in (0, 100)");
  const std::size_t n = values.size();
  if (n == 0) return std::nullopt;
  // Nearest rank: the smallest value with at least p% of samples at or
  // below it; everything after that rank lies beyond the percentile.
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  const std::size_t at = std::max<std::size_t>(rank, 1);
  if (n - at < kTailSupport) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + (at - 1), values.end());
  return values[at - 1];
}

}  // namespace roundbench
