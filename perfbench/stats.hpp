// Order statistics for the benchmark's repeated samples.
//
// quartiles() follows Python's statistics.quantiles(values, n=4) (the
// default "exclusive" method), so a spread computed here matches one
// computed from the printed values in Python.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <optional>
#include <vector>

namespace pb {

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// {Q1, Q2, Q3} by the exclusive method; needs at least two samples.
inline std::array<double, 3> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  std::array<double, 3> q{};
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q[i - 1] = (v[j - 1] * (4 - delta) + v[j] * delta) / 4.0;
  }
  return q;
}

/// Interquartile range as a share of the median.
inline double relative_spread(const std::vector<double>& v) {
  const auto q = quartiles(v);
  return q[1] != 0.0 ? (q[2] - q[0]) / q[1] : 0.0;
}

/// Linear-interpolated percentile (0..100) of the samples.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

struct TailPercentile {
  double percentile = 0.0;
  double value = 0.0;
};

/// The highest of p50, p90, p99, p99.9 and p99.99 that leaves at least
/// @p min_beyond samples above it, or nullopt when even the median does
/// not (fewer than 2 * min_beyond samples).
inline std::optional<TailPercentile> tail_percentile(
    const std::vector<double>& v, std::size_t min_beyond = 10) {
  static constexpr std::array<double, 5> kLadder = {99.99, 99.9, 99.0, 90.0,
                                                    50.0};
  for (double p : kLadder) {
    const auto beyond = static_cast<std::size_t>(
        static_cast<double>(v.size()) * (100.0 - p) / 100.0 + 1e-9);
    if (beyond >= min_beyond) return TailPercentile{p, percentile(v, p)};
  }
  return std::nullopt;
}

}  // namespace pb
