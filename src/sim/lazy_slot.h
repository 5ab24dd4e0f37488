/**
 * @file
 * A timed state change held in a reserved event slot instead of an
 * event.
 *
 * reserve() takes the slot an event scheduled now would take
 * (Kernel::reserveIn) and posts nothing.  Once the slot passes, the
 * owner's first reader applies the change (due() answers true once);
 * that is exactly what the event would have done, so the model reads
 * the same at every point of the run.  The owner posts an event into
 * the slot (post()) only when the event would do more than the change
 * -- retry work that waits on it -- and the event then applies the
 * change itself and calls fired().  Used for the NoC router's
 * serializer-done and the vault controller's bank-free.
 */

#ifndef HMCSIM_SIM_LAZY_SLOT_H_
#define HMCSIM_SIM_LAZY_SLOT_H_

#include <utility>

#include "sim/kernel.h"

namespace hmcsim {

class LazySlot
{
  public:
    /** Hold a change due @p delay ticks from now; no event yet. */
    void
    reserve(Kernel &k, Tick delay)
    {
        slot_ = k.reserveIn(delay);
        held_ = true;
        posted_ = false;
    }

    /** A change is held: reserved and neither applied nor fired. */
    bool held() const { return held_; }

    /** Held without an event: a reader must apply it once it passes. */
    bool lazy() const { return held_ && !posted_; }

    /** Held at the current point of the run (a passed slot is not). */
    bool heldAt(const Kernel &k) const { return held_ && !k.passed(slot_); }

    /** True, releasing the hold, when the slot passed without an
     *  event: the caller applies the change now. */
    bool
    due(const Kernel &k)
    {
        if (!lazy() || !k.passed(slot_))
            return false;
        held_ = false;
        return true;
    }

    /**
     * Post @p fn into the slot.  Call only on a lazy slot the caller
     * just checked with due() (a passed slot panics); @p fn applies
     * the change and calls fired().
     */
    template <typename F>
    void
    post(Kernel &k, F &&fn)
    {
        posted_ = true;
        k.scheduleAt(slot_, std::forward<F>(fn));
    }

    /** The posted event ran. */
    void fired() { held_ = posted_ = false; }

    Tick when() const { return slot_.when; }

  private:
    EventSlot slot_;
    bool held_ = false;
    bool posted_ = false;
};

}  // namespace hmcsim

#endif  // HMCSIM_SIM_LAZY_SLOT_H_
