// Order statistics for the benchmark's own reporting: medians of repeated
// rounds and percentiles of latency samples.
#pragma once

#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for even sizes); 0 when
/// empty.
[[nodiscard]] double median(std::vector<double> v);

/// The p-th percentile (p in [0, 100]) by linear interpolation between the
/// closest ranks: rank = p/100 * (n - 1) over the sorted samples. This is
/// numpy's default ("linear") and R's type 7. 0 when empty.
[[nodiscard]] double percentile(std::vector<double> v, double p);

}  // namespace perfbench
