// Checks the benchmark's own order statistics: median, the quartiles that
// must agree with Python's statistics.quantiles(n=4) (reference values
// below were produced by it), and the tail rule that reports a percentile
// only when at least ten samples lie beyond it.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void expect_near(double got, double want, const char* what) {
  if (std::fabs(got - want) > 1e-12 * std::fmax(1.0, std::fabs(want))) {
    std::printf("FAIL %s: got %.17g, want %.17g\n", what, got, want);
    ++failures;
  }
}

void expect_true(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL %s\n", what);
    ++failures;
  }
}

template <typename F>
void expect_throws(F&& f, const char* what) {
  try {
    f();
  } catch (const std::invalid_argument&) {
    return;
  }
  std::printf("FAIL %s: no exception\n", what);
  ++failures;
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  // Descending, so every routine must sort for itself.
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
  return v;
}

}  // namespace

int main() {
  using namespace roundbench;

  // ---- median ----
  expect_near(median({5, 1, 4, 2, 3}), 3.0, "median odd");
  expect_near(median(ramp(10)), 5.5, "median even");
  expect_near(median({7.25}), 7.25, "median single");
  expect_throws([] { median({}); }, "median empty");

  // ---- quartiles, against statistics.quantiles(values, n=4) ----
  {
    const Quartiles q = quartiles(ramp(10));
    expect_near(q.q1, 2.75, "ramp10 q1");
    expect_near(q.q2, 5.5, "ramp10 q2");
    expect_near(q.q3, 8.25, "ramp10 q3");
    expect_near(q.relative_iqr(), 5.5 / 5.5, "ramp10 relative iqr");
  }
  {
    const Quartiles q = quartiles({3.5, 1.25});  // clamped extrapolation
    expect_near(q.q1, 0.6875, "pair q1");
    expect_near(q.q2, 2.375, "pair q2");
    expect_near(q.q3, 4.0625, "pair q3");
  }
  {
    const Quartiles q = quartiles({5, 1, 4, 2, 3});
    expect_near(q.q1, 1.5, "five q1");
    expect_near(q.q2, 3.0, "five q2");
    expect_near(q.q3, 4.5, "five q3");
  }
  {
    const Quartiles q = quartiles({0.9, 1.1, 1.0, 1.05, 0.95, 1.2, 0.8});
    expect_near(q.q1, 0.9, "seven q1");
    expect_near(q.q2, 1.0, "seven q2");
    expect_near(q.q3, 1.1, "seven q3");
    expect_near(q.relative_iqr(), 0.2, "seven relative iqr");
  }
  expect_near(quartiles({0.0, 0.0, 0.0}).relative_iqr(), 0.0,
              "zero median spread");
  expect_throws([] { quartiles({1.0}); }, "quartiles of one value");

  // ---- tail percentiles: reported only with ten samples beyond ----
  expect_true(!supported_percentile(ramp(19), 50).has_value(),
              "p50 of 19 samples is unsupported");
  {
    const auto p50 = supported_percentile(ramp(20), 50);
    expect_true(p50.has_value(), "p50 of 20 samples is supported");
    if (p50) expect_near(*p50, 10.0, "p50 of 1..20");
  }
  expect_true(!supported_percentile(ramp(99), 90).has_value(),
              "p90 of 99 samples is unsupported");
  {
    const auto p90 = supported_percentile(ramp(100), 90);
    expect_true(p90.has_value(), "p90 of 100 samples is supported");
    if (p90) expect_near(*p90, 90.0, "p90 of 1..100");
  }
  {
    const auto p99 = supported_percentile(ramp(1000), 99);
    expect_true(p99.has_value(), "p99 of 1000 samples is supported");
    if (p99) expect_near(*p99, 990.0, "p99 of 1..1000");
  }
  expect_true(!supported_percentile(ramp(999), 99).has_value(),
              "p99 of 999 samples is unsupported");
  expect_true(!supported_percentile({}, 50).has_value(), "no samples");
  expect_throws([] { supported_percentile(ramp(10), 100); },
                "percentile out of range");

  if (failures == 0) std::printf("roundbench stats: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
