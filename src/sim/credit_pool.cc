#include "sim/credit_pool.h"

#include <string>

#include "common/log.h"

namespace hmcsim {

CreditPool::CreditPool(Kernel &kernel, std::uint32_t capacity)
    : kernel_(kernel), capacity_(capacity), available_(capacity)
{
    if (capacity_ == 0)
        panic("CreditPool: zero capacity");
}

void
CreditPool::consume(std::uint32_t n)
{
    if (n > available())
        panic("CreditPool: consuming " + std::to_string(n) +
              " credits with only " + std::to_string(available_) +
              " available");
    available_ -= n;
    consumed_ += n;
}

void
CreditPool::grow()
{
    std::vector<Return> bigger(ring_.empty() ? 4 : 2 * ring_.size());
    for (std::size_t i = 0; i < count_; ++i)
        bigger[i] = ring_[(head_ + i) & (ring_.size() - 1)];
    ring_ = std::move(bigger);
    head_ = 0;
}

void
CreditPool::panicOverRefund()
{
    panic("CreditPool: refund past capacity");
}

void
CreditPool::setOnAvailable(InlineFunction<void()> fn)
{
    onAvailable_ = std::move(fn);
}

void
CreditPool::postWake()
{
    // A return whose slot has passed fired its (would-be) event
    // already; the wake goes to the first one still ahead.
    fold();
    if (count_ == 0)
        return;  // the next refundIn() posts it
    wakePosted_ = true;
    kernel_.scheduleAt(ring_[head_].slot, [this] { wake(); });
}

void
CreditPool::wake()
{
    wakePosted_ = false;
    armed_ = false;
    fold();
    onAvailable_();
}

}  // namespace hmcsim
