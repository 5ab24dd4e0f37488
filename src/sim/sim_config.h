/**
 * @file
 * Engine configuration: the `sim.*` config surface.
 *
 * These knobs tune the geometry of the calendar event queue, never
 * behaviour: every setting produces the exact same event execution
 * order (and therefore bit-identical simulation results); they only
 * trade engine wall-clock speed.
 *
 * Knobs:
 *   sim.calendar_bucket_ps   u64   calendar bucket width in ticks
 *                                  (power of two, default 512)
 *   sim.calendar_buckets     u64   near-future ring size in buckets
 *                                  (power of two, default 4096; the
 *                                  ring horizon is width * buckets,
 *                                  ~2 us at the defaults -- beyond it
 *                                  events wait in the far-future heap)
 */

#ifndef HMCSIM_SIM_SIM_CONFIG_H_
#define HMCSIM_SIM_SIM_CONFIG_H_

#include <cstdint>

#include "common/config.h"

namespace hmcsim {

struct SimConfig {
    std::uint64_t calendarBucketPs = 512;
    std::uint64_t calendarBuckets = 4096;

    void validate() const;

    /** Read "sim.*" keys over the defaults. */
    static SimConfig fromConfig(const Config &cfg);
    void toConfig(Config &cfg) const;
};

}  // namespace hmcsim

#endif  // HMCSIM_SIM_SIM_CONFIG_H_
