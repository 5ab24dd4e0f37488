/**
 * @file
 * Statistics helpers of the benchmark: order statistics over run
 * repetitions, the tail-percentile rule for latency reports, and the
 * digest that proves simulated statistics did not change.
 */

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Median of @p v (mean of the two middle values for even sizes);
 *  0 for an empty vector. */
double median(std::vector<double> v);

struct Quartiles {
    double q1 = 0.0;
    double q2 = 0.0;
    double q3 = 0.0;
};

/**
 * Quartiles by the "exclusive" method of Python's
 * statistics.quantiles(values, n=4), so the benchmark's own spread
 * figures match what an external check computes.  Needs at least two
 * values; fewer give all three quartiles equal to the median.
 */
Quartiles quartiles(std::vector<double> v);

/**
 * Highest of the percentiles 50, 90, 99, 99.9, 99.99 and 99.999 that
 * still has at least ten samples beyond it in a population of
 * @p samples; 0 when even the median has fewer than ten beyond it.
 */
double tailPercentile(std::uint64_t samples);

/**
 * Order-independent 64-bit FNV-1a digest (16 hex digits) of a
 * statistics map, every value printed with 17 significant digits so
 * any change in a simulated statistic changes the digest.
 */
std::string digest(const std::map<std::string, double> &stats);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
