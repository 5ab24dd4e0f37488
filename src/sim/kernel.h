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
    template <typename F>
    void
    scheduleIn(Tick delay, F &&fn, int priority = 0)
    {
        if (delay > kTickNever - now_)
            panicOverflow(delay);
        queue_.schedule(now_ + delay, std::forward<F>(fn), priority);
    }

    /** Schedule @p fn at absolute @p when; panics if @p when is past. */
    template <typename F>
    void
    scheduleAt(Tick when, F &&fn, int priority = 0)
    {
        if (when < now_)
            panicPast(when);
        queue_.schedule(when, std::forward<F>(fn), priority);
    }

    /**
     * Schedule @p fn at @p when as if an event at @p at (now or
     * later) scheduled it, without that event: see
     * EventQueue::scheduleRelay.  Returns the relay's slot.
     */
    template <typename F>
    EventSlot
    scheduleRelay(Tick at, Tick when, F &&fn)
    {
        if (at < now_)
            panicPast(at);
        if (when < at)
            panic("Kernel::scheduleRelay: event before its relay");
        return queue_.scheduleRelay(at, when, std::forward<F>(fn));
    }

    /**
     * Reserve the slot scheduleIn(@p delay) would take now, without
     * posting an event (same overflow check).
     */
    EventSlot
    reserveIn(Tick delay)
    {
        if (delay > kTickNever - now_)
            panicOverflow(delay);
        return queue_.reserve(now_ + delay);
    }

    /** Schedule @p fn into a reserved slot; panics if it is past. */
    template <typename F>
    void
    scheduleAt(const EventSlot &slot, F &&fn)
    {
        if (slot.when < now_)
            panicPast(slot.when);
        queue_.schedule(slot, std::forward<F>(fn));
    }

    /**
     * True once an event in @p slot would have fired: it orders before
     * the executing event (or is its slot), or -- between runs -- lies
     * at or before the idle horizon the last run() reached.  See
     * EventQueue::passed.
     */
    bool passed(const EventSlot &slot) const { return queue_.passed(slot); }

    /**
     * Run until the queue drains or simulated time would pass @p until.
     * Events exactly at @p until still execute.  Unless stopped, the
     * run ends at an idle horizon -- @p until, or the last event's time
     * when the queue drains under kTickNever -- and every slot reserved
     * at or before it has passed.  A drained run does not step onto
     * reserved slots beyond its last event.
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
     * tracing, latency anatomy); null -- the default -- means the layer is
     * disabled and every hook site reduces to a null check.  Published
     * by System before the component tree is built; the Observability
     * object outlives every component registered with it.
     */
    Observability *obs() const { return obs_; }
    void setObservability(Observability *obs) { obs_ = obs; }

  private:
    [[noreturn]] void panicOverflow(Tick delay) const;
    [[noreturn]] void panicPast(Tick when) const;
    /** Close a run that was not stopped (see run()). */
    void endRun(Tick until);

    EventQueue queue_;
    Tick now_ = 0;
    bool stopRequested_ = false;
    Observability *obs_ = nullptr;
};

}  // namespace hmcsim

#endif  // HMCSIM_SIM_KERNEL_H_
