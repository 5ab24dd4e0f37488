#include "sim/sim_config.h"

#include "common/log.h"

namespace hmcsim {

namespace {

bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** The "sim.*" key list. */
template <typename C, typename F>
void
fields(C &c, const F &f)
{
    f("sim.calendar_bucket_ps", c.calendarBucketPs);
    f("sim.calendar_buckets", c.calendarBuckets);
}

}  // namespace

void
SimConfig::validate() const
{
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
    fields(c, ConfigReader{cfg});
    c.validate();
    return c;
}

void
SimConfig::toConfig(Config &cfg) const
{
    fields(*this, ConfigWriter{cfg});
}

}  // namespace hmcsim
