/**
 * @file
 * Credit-based flow control without per-return events.
 *
 * A sender holds credits equal to the receiver's buffer space (SerDes
 * link tokens, NoC router input buffers, NoC inject ports, all in
 * flits).  It consumes them when a message starts out and gets them
 * back a fixed latency after the receiver drains the message.  The
 * return is not an event: refundIn() records it as (slot, n), taking
 * the (time, priority, seq) slot a scheduleIn() would have taken, and
 * every reader -- canConsume(), consume(), available(), inFlight() --
 * first folds in the returns whose slot has passed (Kernel::passed).
 * So the pool reads exactly what an event-per-return model reads at
 * every point of the run.
 *
 * An event is posted only to wake a blocked sender.  A failed
 * canConsume() arms the pool; while armed with returns pending it holds
 * exactly one wake event, in the front return's own slot.  The wake
 * folds, disarms and runs the availability callback, which re-arms by
 * failing canConsume() again if its sender is still blocked.
 */

#ifndef HMCSIM_SIM_CREDIT_POOL_H_
#define HMCSIM_SIM_CREDIT_POOL_H_

#include <cstdint>
#include <vector>

#include "common/inline_function.h"
#include "sim/kernel.h"

namespace hmcsim {

class CreditPool
{
  public:
    /** A pool of @p capacity credits; panics on zero. */
    CreditPool(Kernel &kernel, std::uint32_t capacity);

    // Wakes and the receivers that refund it hold its address.
    CreditPool(const CreditPool &) = delete;
    CreditPool &operator=(const CreditPool &) = delete;

    std::uint32_t capacity() const { return capacity_; }
    std::uint32_t available() const { fold(); return available_; }
    std::uint32_t inFlight() const { return capacity_ - available(); }

    /** True if @p n credits could be consumed now; arms when not. */
    bool
    canConsume(std::uint32_t n)
    {
        if (available() >= n)
            return true;
        arm();
        return false;
    }

    /** Consume @p n credits; panics if unavailable. */
    void consume(std::uint32_t n);

    /** Return @p n credits @p delay ticks from now. */
    void
    refundIn(Tick delay, std::uint32_t n)
    {
        if (available_ + returning_ + n > capacity_)
            panicOverRefund();
        if (count_ == ring_.size())
            grow();
        ring_[(head_ + count_) & (ring_.size() - 1)] =
            Return{kernel_.reserveIn(delay), n};
        ++count_;
        returning_ += n;
        if (armed_ && !wakePosted_ && onAvailable_)
            postWake();
    }

    /**
     * Wake the sender at the next return: the callback runs in that
     * return's slot, after it is folded in.
     */
    void
    arm()
    {
        armed_ = true;
        if (!wakePosted_ && onAvailable_)
            postWake();
    }

    /** Callback a wake runs (inline capture; never allocates).  With
     *  none set the pool posts no events at all. */
    void setOnAvailable(InlineFunction<void()> fn);

    /** Returns recorded but not yet folded in. */
    std::size_t pendingReturns() const { return count_; }

    /** Lifetime counters for diagnostics. */
    std::uint64_t totalConsumed() const { return consumed_; }

  private:
    struct Return {
        EventSlot slot;
        std::uint32_t n;
    };

    Kernel &kernel_;
    std::uint32_t capacity_;
    // Folding is bookkeeping a reader may do: it moves credits from
    // returned-at-a-passed-slot to available, never changing what the
    // pool reports.
    mutable std::uint32_t available_;
    /** Credits in pending returns. */
    mutable std::uint32_t returning_ = 0;
    std::uint64_t consumed_ = 0;
    /** FIFO ring of pending returns (power-of-two size, allocated on
     *  the first return). */
    mutable std::vector<Return> ring_;
    mutable std::size_t head_ = 0;
    mutable std::size_t count_ = 0;
    bool armed_ = false;
    bool wakePosted_ = false;
    InlineFunction<void()> onAvailable_;

    void
    fold() const
    {
        while (count_ != 0 && kernel_.passed(ring_[head_].slot)) {
            const Return &r = ring_[head_];
            available_ += r.n;
            returning_ -= r.n;
            head_ = (head_ + 1) & (ring_.size() - 1);
            --count_;
        }
    }
    /** Double the ring (each pending return holds at least one credit,
     *  so it never outgrows the capacity). */
    void grow();
    void postWake();
    void wake();
    [[noreturn]] static void panicOverRefund();
};

}  // namespace hmcsim

#endif  // HMCSIM_SIM_CREDIT_POOL_H_
