/**
 * @file
 * Fixed reference kernels the benchmark times next to every
 * repetition.  On a shared host the speed of allocation-heavy, branchy
 * code drifts by tens of percent over minutes; the simulator and these
 * kernels drift together, so host times divided by a kernel's time
 * stay comparable across runs.  The kernels are the benchmark's own
 * code and never call the simulator.  A simulator could still reach
 * them through the caches it leaves behind, so a kernel warms its
 * table untimed before each timed run and the benchmark times it only
 * while no System is alive; perfbench/README.md records that its time
 * does not move when the ablations change the simulated configuration.
 */

#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstddef>

namespace perfbench {

/** The two kernels' tables: the small one fits one core's L2, the
 *  large one does not, and neither does a simulation's state. */
constexpr std::size_t kSmallTableBytes = std::size_t{1} << 20;
constexpr std::size_t kLargeTableBytes = std::size_t{4} << 20;

/**
 * Host seconds at nominal host speed; normalized host time = wall time
 * x nominal / measured kernel time.  The set-up, mostly allocation, is
 * normalized by the small kernel, which tracks it best.  The window is
 * normalized by both kernels together: across the three workloads
 * their sum tracked it better than either alone (perfbench/README.md).
 */
constexpr double kSetupNominalSec = 0.010;   // small kernel
constexpr double kWindowNominalSec = 0.025;  // small + large kernel

/**
 * Run the reference kernel once over a table of @p tableBytes and
 * return its wall time in seconds: a discrete-event loop of 100k
 * events over a 512-entry priority queue, one small shared_ptr
 * allocation and one random access to the table per event.  An
 * untimed pass over the table precedes the timed loop.
 */
double referenceKernelSeconds(std::size_t tableBytes);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
