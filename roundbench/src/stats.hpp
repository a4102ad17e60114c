// Order statistics for the round benchmark: the median every timing is
// reported as, the quartiles its spread is judged by (Python's
// statistics.quantiles(n=4) "exclusive" method, so the benchmark and any
// script reading its output agree), and tail percentiles that are only
// reported when enough samples lie beyond them to mean something.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace roundbench {

/// Median of `values` (mean of the two middle values for an even count).
/// Throws std::invalid_argument on an empty input.
double median(std::vector<double> values);

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
  /// (q3 - q1) / q2, the spread the benchmark's bounds are checked against;
  /// 0 when the median is 0.
  double relative_iqr() const;
};

/// Quartiles as statistics.quantiles(values, n=4) computes them. Needs at
/// least two values (throws std::invalid_argument otherwise).
Quartiles quartiles(std::vector<double> values);

/// Samples needed beyond a percentile before it is reported.
inline constexpr std::size_t kTailSupport = 10;

/// The nearest-rank p-th percentile (0 < p < 100) of `values`, or nullopt
/// when fewer than kTailSupport samples lie beyond it — e.g. p90 needs at
/// least 100 samples, p50 at least 20.
std::optional<double> supported_percentile(std::vector<double> values,
                                           double p);

}  // namespace roundbench
