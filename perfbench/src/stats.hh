/**
 * @file
 * Order statistics used by every perfbench workload.
 *
 * One percentile rule everywhere: nearest rank on the sorted sample
 * (the value at index ceil(q * n) - 1), so p50 of {1, 2, 3, 4} is 2
 * and p99 of 100 samples is the 99th smallest. The rule never
 * interpolates, so a reported latency is always one that was observed.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/** Nearest-rank percentile of a sample (copied); 0 when empty. */
inline double
percentile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const double n = static_cast<double>(xs.size());
    auto rank = static_cast<std::size_t>(std::ceil(q * n));
    rank = std::clamp<std::size_t>(rank, 1, xs.size());
    return xs[rank - 1];
}

/** Median under the same nearest-rank rule. */
inline double
median(std::vector<double> xs)
{
    return percentile(std::move(xs), 0.5);
}

/** Arithmetic mean; 0 when empty. */
inline double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double s = 0.0;
    for (double x : xs)
        s += x;
    return s / static_cast<double>(xs.size());
}

/**
 * Percentile @p q within each run of @p window consecutive samples,
 * then the median over those windows; a trailing partial window is
 * dropped. One stall of the host moves one window, not the result.
 * Falls back to the plain percentile with fewer than @p window samples.
 */
inline double
windowed(const std::vector<double> &xs, std::size_t window, double q)
{
    std::vector<double> perWindow;
    for (std::size_t i = 0; window > 0 && i + window <= xs.size();
         i += window) {
        const auto from = xs.begin() + static_cast<long>(i);
        perWindow.push_back(percentile(
            std::vector<double>(from, from + static_cast<long>(window)), q));
    }
    return perWindow.empty() ? percentile(xs, q) : median(perWindow);
}

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
