#include "sim/kernel.h"

#include "common/log.h"

namespace hmcsim {

void
Kernel::panicPast(Tick when) const
{
    panic("Kernel::scheduleAt: time " + std::to_string(when) +
          " is in the past (now " + std::to_string(now_) + ")");
}

void
Kernel::panicOverflow(Tick delay) const
{
    panic("Kernel::scheduleIn: delay " + std::to_string(delay) +
          " overflows the tick clock (now " + std::to_string(now_) + ")");
}

void
Kernel::endRun(Tick until)
{
    // Advance time to the requested horizon so back-to-back windows
    // measure contiguous intervals even if the queue went idle early.
    if (until != kTickNever && now_ < until)
        now_ = until;
    // Nothing pending fires at or before the horizon, so every slot
    // reserved up to it has passed.
    queue_.setHorizon(until != kTickNever ? until : now_);
}

std::uint64_t
Kernel::run(Tick until)
{
    stopRequested_ = false;
    std::uint64_t executed = 0;
    while (!queue_.empty() && !stopRequested_) {
        const Tick next = queue_.nextTime(until);
        if (next > until)
            break;
        now_ = next;
        queue_.executeNext();
        ++executed;
    }
    if (!stopRequested_)
        endRun(until);
    return executed;
}

std::uint64_t
// hmcsim-lint: allow(std-function) one predicate per run(), not per-event
Kernel::runUntil(const std::function<bool()> &pred, Tick until)
{
    stopRequested_ = false;
    std::uint64_t executed = 0;
    bool predHit = false;
    while (!queue_.empty() && !stopRequested_) {
        if (pred()) {
            predHit = true;
            break;
        }
        const Tick next = queue_.nextTime(until);
        if (next > until)
            break;
        now_ = next;
        queue_.executeNext();
        ++executed;
    }
    // Same idle-horizon semantics as run(): an early drain (or an
    // event horizon past @p until) still advances the clock to the
    // requested horizon, so back-to-back measurement windows stay
    // contiguous.  A satisfied predicate does not advance -- its
    // firing time is the result the caller is after -- and, like
    // stop(), leaves the frontier at the last event.
    if (!stopRequested_ && !predHit && !pred())
        endRun(until);
    return executed;
}

}  // namespace hmcsim
