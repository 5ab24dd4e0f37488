#include "sim/sim_config.h"

#include "common/log.h"

namespace hmcsim {

namespace {

bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

}  // namespace

EventQueueKind
eventQueueKindFromString(const std::string &s)
{
    if (s == "heap")
        return EventQueueKind::Heap;
    if (s == "calendar")
        return EventQueueKind::Calendar;
    fatal("sim: unknown event queue '" + s + "' (expected heap|calendar)");
}

std::string
toString(EventQueueKind k)
{
    switch (k) {
      case EventQueueKind::Heap:
        return "heap";
      case EventQueueKind::Calendar:
        return "calendar";
    }
    return "heap";
}

void
SimConfig::validate() const
{
    eventQueueKindFromString(eventQueue);
    if (!isPowerOfTwo(calendarBucketPs))
        fatal("sim: calendar_bucket_ps must be a power of two");
    if (!isPowerOfTwo(calendarBuckets))
        fatal("sim: calendar_buckets must be a power of two");
    if (calendarBuckets < 2)
        fatal("sim: calendar_buckets must be >= 2");
}

SimConfig
SimConfig::fromConfig(const Config &cfg)
{
    SimConfig c;
    c.eventQueue = cfg.getString("sim.event_queue", c.eventQueue);
    c.calendarBucketPs =
        cfg.getU64("sim.calendar_bucket_ps", c.calendarBucketPs);
    c.calendarBuckets = cfg.getU64("sim.calendar_buckets", c.calendarBuckets);
    c.packetPool = cfg.getBool("sim.packet_pool", c.packetPool);
    c.validate();
    return c;
}

void
SimConfig::toConfig(Config &cfg) const
{
    cfg.set("sim.event_queue", eventQueue);
    cfg.setU64("sim.calendar_bucket_ps", calendarBucketPs);
    cfg.setU64("sim.calendar_buckets", calendarBuckets);
    cfg.setBool("sim.packet_pool", packetPool);
}

}  // namespace hmcsim
