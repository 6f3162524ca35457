#pragma once
// Order statistics over a handful of trials.  quartiles() reproduces
// Python's statistics.quantiles(data, n=4) (the default "exclusive"
// method), so the spreads printed here are the ones compare.py computes.

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

namespace ffis::suite {

inline double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// (Q1, Q3) by the exclusive method; a single sample is its own quartiles.
inline std::pair<double, double> quartiles(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("quartiles of no samples");
  std::sort(v.begin(), v.end());
  const long n = static_cast<long>(v.size());
  if (n == 1) return {v[0], v[0]};
  const auto q = [&](long i) {
    const long m = n + 1;
    const long j = std::clamp(i * m / 4, 1L, n - 1);
    const long delta = i * m - j * 4;
    return (v[j - 1] * static_cast<double>(4 - delta) + v[j] * static_cast<double>(delta)) /
           4.0;
  };
  return {q(1), q(3)};
}

/// Nearest-rank percentile, p in (0, 100].
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) throw std::invalid_argument("percentile of no samples");
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

}  // namespace ffis::suite
