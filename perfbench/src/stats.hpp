// Order statistics for the benchmark's reported figures.
//
// Every timing is reported as a median plus the highest tail percentile
// that still has at least ten samples beyond it, with the sample count, so
// a reader can tell a measured tail from an extrapolated one.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// The q-quantile (0 <= q <= 1) by linear interpolation between the two
/// nearest order statistics (Hyndman-Fan type 7, numpy's default).
/// Returns 0 for an empty sample.
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

struct summary {
  std::size_t count = 0;
  double median = 0.0;
  /// Highest of p90/p99/p99.9 with >= 10 samples beyond it; 0 when the
  /// sample is too small for any of them (then `tail` is 0 too).
  double tail_percentile = 0.0;
  double tail = 0.0;
};

/// Samples strictly beyond the p-th percentile a sample of `count` has:
/// floor(count * (1 - p/100)), computed in integers so p99.9 of 10,000
/// samples is exactly 10.
[[nodiscard]] inline std::size_t samples_beyond(std::size_t count,
                                                double percentile) {
  const auto per_mille = static_cast<std::size_t>(std::lround(percentile * 10.0));
  return count * (1000 - std::min<std::size_t>(per_mille, 1000)) / 1000;
}

[[nodiscard]] inline summary summarize(const std::vector<double>& v) {
  summary s;
  s.count = v.size();
  s.median = median(v);
  for (const double p : {99.9, 99.0, 90.0}) {
    if (samples_beyond(v.size(), p) >= 10) {
      s.tail_percentile = p;
      s.tail = quantile(v, p / 100.0);
      break;
    }
  }
  return s;
}

}  // namespace perfbench
