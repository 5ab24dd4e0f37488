/**
 * @file
 * Engine configuration: the `sim.*` config surface.
 *
 * These knobs select *implementations*, never *behaviour*: every
 * setting produces the exact same event execution order (and therefore
 * bit-identical simulation results); they only trade engine wall-clock
 * speed.  `heap` is the reference binary-heap queue kept for
 * differential testing; `calendar` is the production two-level
 * calendar queue tuned for the near-monotonic dense schedule pattern
 * of cycle-level simulation.
 *
 * Knobs:
 *   sim.event_queue          heap|calendar   pending-event structure
 *                                            (default calendar)
 *   sim.calendar_bucket_ps   u64   calendar bucket width in ticks
 *                                  (power of two, default 512)
 *   sim.calendar_buckets     u64   near-future ring size in buckets
 *                                  (power of two, default 4096; the
 *                                  ring horizon is width * buckets,
 *                                  ~2 us at the defaults -- beyond it
 *                                  events wait in the far-future heap)
 *   sim.packet_pool          bool  recycle HmcPacket allocations
 *                                  through the freelist-backed packet
 *                                  pool (default true; false restores
 *                                  plain make_shared for differential
 *                                  testing)
 */

#ifndef HMCSIM_SIM_SIM_CONFIG_H_
#define HMCSIM_SIM_SIM_CONFIG_H_

#include <cstdint>
#include <string>

#include "common/config.h"

namespace hmcsim {

/** Pending-event container implementations. */
enum class EventQueueKind {
    /** Reference binary min-heap (std::priority_queue semantics). */
    Heap,
    /** Two-level calendar: near-future bucket ring + far-future heap. */
    Calendar,
};

EventQueueKind eventQueueKindFromString(const std::string &s);
std::string toString(EventQueueKind k);

struct SimConfig {
    std::string eventQueue = "calendar";
    std::uint64_t calendarBucketPs = 512;
    std::uint64_t calendarBuckets = 4096;
    bool packetPool = true;

    EventQueueKind
    queueKind() const
    {
        return eventQueueKindFromString(eventQueue);
    }

    void validate() const;

    /** Read "sim.*" keys over the defaults. */
    static SimConfig fromConfig(const Config &cfg);
    void toConfig(Config &cfg) const;
};

}  // namespace hmcsim

#endif  // HMCSIM_SIM_SIM_CONFIG_H_
