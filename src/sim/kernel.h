/**
 * @file
 * Simulation kernel: owns the event queue and the global clock, and
 * provides the run loop with stop conditions.
 */

#ifndef HMCSIM_SIM_KERNEL_H_
#define HMCSIM_SIM_KERNEL_H_

#include <cstdint>
#include <functional>

#include "common/log.h"
#include "common/types.h"
#include "sim/event_queue.h"

namespace hmcsim {

class Observability;

class Kernel
{
  public:
    Kernel() = default;

    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule @p fn @p delay ticks from now.  Panics when the delay
     * would wrap the tick clock -- a wrapped deadline lands in the
     * past and is silently mis-ordered (calendar mode would clamp it
     * to now), so it is never what the caller meant.
     */
    void
    scheduleIn(Tick delay, EventFn fn, int priority = 0)
    {
        if (delay > kTickNever - now_)
            panic("Kernel::scheduleIn: delay " + std::to_string(delay) +
                  " overflows the tick clock (now " +
                  std::to_string(now_) + ")");
        queue_.schedule(now_ + delay, std::move(fn), priority);
    }

    /** Schedule @p fn at absolute @p when; panics if @p when is past. */
    void scheduleAt(Tick when, EventFn fn, int priority = 0);

    /**
     * Run until the queue drains or simulated time would pass @p until.
     * Events exactly at @p until still execute.
     * @return number of events executed by this call.
     */
    std::uint64_t run(Tick until = kTickNever);

    /**
     * Run until @p pred returns true (checked after every event), the
     * queue drains, or @p until passes.  Like run(), an early drain
     * advances the clock to @p until -- unless the predicate ended the
     * run, whose firing time is the meaningful result.
     */
    // hmcsim-lint: allow(std-function) one predicate per run(), not per-event
    std::uint64_t runUntil(const std::function<bool()> &pred,
                           Tick until = kTickNever);

    /** Request that the current run() returns after the active event. */
    void stop() { stopRequested_ = true; }

    /** Direct queue access (tests, stats). */
    EventQueue &queue() { return queue_; }
    const EventQueue &queue() const { return queue_; }

    /** Events executed over the kernel's lifetime. */
    std::uint64_t eventsExecuted() const { return queue_.executedCount(); }

    /**
     * The observability layer components register into (metrics,
     * tracing, profiling); null -- the default -- means the layer is
     * disabled and every hook site reduces to a null check.  Published
     * by System before the component tree is built; the Observability
     * object outlives every component registered with it.
     */
    Observability *obs() const { return obs_; }
    void setObservability(Observability *obs) { obs_ = obs; }

  private:
    EventQueue queue_;
    Tick now_ = 0;
    bool stopRequested_ = false;
    Observability *obs_ = nullptr;
};

}  // namespace hmcsim

#endif  // HMCSIM_SIM_KERNEL_H_
