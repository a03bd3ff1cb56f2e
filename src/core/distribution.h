// Empirical distributions: moments, quantiles, CDF.
//
// "A key insight is that although the I/O rate an individual task
// observes may vary significantly from run to run, the statistical
// moments and modes of the performance distribution are reproducible."
// This class carries the moments/quantiles half of that program; modes
// live in modes.h.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "common/check.h"

namespace eio::stats {

/// Central and standardized moments of a sample.
struct Moments {
  std::size_t count = 0;
  double mean = 0.0;
  double variance = 0.0;  ///< unbiased (n-1) sample variance
  double stddev = 0.0;
  double skewness = 0.0;  ///< standardized third moment (0 for symmetric)
  double kurtosis_excess = 0.0;  ///< standardized fourth moment - 3
  /// Coefficient of variation σ/µ — the paper's "narrowing" metric.
  [[nodiscard]] double cv() const noexcept { return mean != 0.0 ? stddev / mean : 0.0; }
};

/// Compute moments of a sample in one pass.
[[nodiscard]] Moments compute_moments(std::span<const double> samples);

/// EmpiricalDistribution::quantile's interpolation over an unsorted,
/// non-empty sample, bit for bit, by selecting the two order
/// statistics it reads instead of sorting: nth_element puts the lo-th
/// at lo and every larger one after it, so the (lo+1)-th is the least
/// of that upper part. Reorders `v`. Inline because the health monitor
/// selects class medians on every window evaluation.
[[nodiscard]] inline double select_quantile(std::span<double> v, double q) {
  if (v.size() == 1) return v[0];
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  const auto lo_it = v.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(v.begin(), lo_it, v.end());
  const double a = *lo_it;
  const double b =
      lo + 1 < v.size() ? *std::min_element(lo_it + 1, v.end()) : a;
  return a * (1.0 - frac) + b * frac;
}

/// A sorted copy of a sample supporting quantile/CDF queries.
class EmpiricalDistribution {
 public:
  EmpiricalDistribution() = default;
  explicit EmpiricalDistribution(std::vector<double> samples);

  [[nodiscard]] std::size_t size() const noexcept { return sorted_.size(); }
  [[nodiscard]] bool empty() const noexcept { return sorted_.empty(); }
  [[nodiscard]] const std::vector<double>& sorted() const noexcept { return sorted_; }

  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] const Moments& moments() const noexcept { return moments_; }
  [[nodiscard]] double mean() const noexcept { return moments_.mean; }
  [[nodiscard]] double stddev() const noexcept { return moments_.stddev; }

  /// Interpolated quantile, q in [0, 1].
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }

  /// Empirical CDF: fraction of samples <= x.
  [[nodiscard]] double cdf(double x) const;

  /// Plug-in estimate of E[max of n iid draws] from this distribution:
  /// E ≈ Σ_i x_(i) * (F(x_(i))^n - F(x_(i-1))^n) over the sorted sample.
  [[nodiscard]] double expected_max_of(std::size_t n) const;

 private:
  std::vector<double> sorted_;
  Moments moments_;
};

}  // namespace eio::stats
