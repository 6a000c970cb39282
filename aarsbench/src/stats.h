// The percentile behind every sim_p99_ms figure.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace aarsbench {

/// Nearest-rank percentile: the smallest sample such that at least
/// `p` percent of the samples are <= it.  p in (0, 100].
template <typename T>
T percentile(std::vector<T> v, double p) {
  if (v.empty()) throw std::invalid_argument("percentile of an empty sample");
  if (!(p > 0.0 && p <= 100.0)) {
    throw std::invalid_argument("percentile outside (0, 100]");
  }
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size()) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

}  // namespace aarsbench
