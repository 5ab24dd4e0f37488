/**
 * @file
 * CreditPool: consume/return accounting, and the return/fold/arm/wake
 * contract -- a return is a timestamped entry folded in by readers,
 * and an event is posted only to wake a blocked sender, in the
 * return's own slot.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/log.h"
#include "sim/credit_pool.h"

namespace hmcsim {
namespace {

TEST(CreditPool, StartsFull)
{
    Kernel k;
    CreditPool t(k, 64);
    EXPECT_EQ(t.capacity(), 64u);
    EXPECT_EQ(t.available(), 64u);
    EXPECT_EQ(t.inFlight(), 0u);
}

TEST(CreditPool, ConsumeRefundCycle)
{
    Kernel k;
    CreditPool t(k, 10);
    EXPECT_TRUE(t.canConsume(10));
    t.consume(6);
    EXPECT_EQ(t.available(), 4u);
    EXPECT_EQ(t.inFlight(), 6u);
    EXPECT_FALSE(t.canConsume(5));
    t.refundIn(100, 6);
    EXPECT_EQ(t.available(), 4u);
    k.run(100);
    EXPECT_EQ(t.available(), 10u);
}

TEST(CreditPool, CallbackFiresAtEachReturnWhileBlocked)
{
    // The sender needs all four credits; each return it is still
    // blocked at wakes it, and the last one unblocks it.
    Kernel k;
    CreditPool t(k, 4);
    std::vector<Tick> fires;
    t.setOnAvailable([&] {
        fires.push_back(k.now());
        if (t.canConsume(4))
            t.consume(4);
    });
    t.consume(4);
    t.refundIn(10, 2);
    t.refundIn(20, 2);
    EXPECT_FALSE(t.canConsume(4));
    k.run();
    EXPECT_EQ(fires, (std::vector<Tick>{10, 20}));
    EXPECT_EQ(t.available(), 0u);
    EXPECT_EQ(t.totalConsumed(), 8u);
}

TEST(CreditPool, ReturnNobodyWaitsForPostsNoEvent)
{
    Kernel k;
    CreditPool t(k, 8);
    int fires = 0;
    t.setOnAvailable([&] { ++fires; });
    t.consume(8);
    t.refundIn(50, 3);
    t.refundIn(50, 5);
    EXPECT_TRUE(k.queue().empty());
    EXPECT_EQ(k.run(100), 0u);
    EXPECT_EQ(fires, 0);
    EXPECT_EQ(t.available(), 8u);
}

TEST(CreditPool, PoolWithoutCallbackPostsNoEvent)
{
    Kernel k;
    CreditPool t(k, 4);
    t.consume(4);
    t.refundIn(10, 4);
    EXPECT_FALSE(t.canConsume(1));
    EXPECT_TRUE(k.queue().empty());
}

TEST(CreditPool, WakeTakesTheReturnsOwnSlot)
{
    // Same-time events on either side of the return's slot: one
    // scheduled before the return was recorded sees the old count, one
    // scheduled after it the new count, and the blocked sender's wake
    // runs between them.
    Kernel k;
    CreditPool t(k, 4);
    std::vector<std::pair<char, std::uint32_t>> seen;
    t.setOnAvailable([&] { seen.emplace_back('w', t.available()); });
    t.consume(4);
    k.scheduleAt(100, [&] { seen.emplace_back('a', t.available()); });
    t.refundIn(100, 3);
    k.scheduleAt(100, [&] { seen.emplace_back('b', t.available()); });
    EXPECT_FALSE(t.canConsume(1));  // arms: one wake event
    EXPECT_EQ(k.queue().size(), 3u);
    k.run();
    using P = std::pair<char, std::uint32_t>;
    EXPECT_EQ(seen, (std::vector<P>{{'a', 0}, {'w', 3}, {'b', 3}}));
}

TEST(CreditPool, ReadersFoldInsideEvents)
{
    // Without a blocked sender no event is posted, yet an event after
    // the return's slot reads the returned credits and one before it
    // does not.
    Kernel k;
    CreditPool t(k, 4);
    std::vector<std::uint32_t> seen;
    t.consume(4);
    k.scheduleAt(99, [&] { seen.push_back(t.available()); });
    t.refundIn(100, 4);
    k.scheduleAt(100, [&] { seen.push_back(t.available()); });
    k.run();
    EXPECT_EQ(seen, (std::vector<std::uint32_t>{0, 4}));
}

TEST(CreditPool, RunUntilOnAnIdleQueueFoldsUpToTheHorizon)
{
    Kernel k;
    CreditPool t(k, 8);
    t.consume(8);
    t.refundIn(50, 2);
    t.refundIn(60, 2);
    t.refundIn(70, 4);
    k.run(60);
    EXPECT_EQ(k.now(), 60u);
    EXPECT_EQ(t.available(), 4u);
    EXPECT_EQ(t.pendingReturns(), 1u);
    k.run(70);
    EXPECT_EQ(t.available(), 8u);
    EXPECT_EQ(t.pendingReturns(), 0u);
}

TEST(CreditPool, DrainedRunDoesNotStepOntoReturns)
{
    // run() without a horizon stops at the last event; a return
    // beyond it stays pending until a later run passes it.
    Kernel k;
    CreditPool t(k, 4);
    t.consume(4);
    k.scheduleAt(10, [&] { t.refundIn(100, 4); });
    k.run();
    EXPECT_EQ(k.now(), 10u);
    EXPECT_EQ(t.available(), 0u);
    k.run(110);
    EXPECT_EQ(t.available(), 4u);
}

TEST(CreditPool, ZeroDelayReturnOutsideEventsIsNotSwallowedByTheHorizon)
{
    Kernel k;
    CreditPool t(k, 4);
    k.run(100);
    t.consume(4);
    // Recorded at now == the idle horizon, after it was set: an event
    // in this slot would still be pending.
    t.refundIn(0, 4);
    EXPECT_EQ(t.available(), 0u);
    k.run(100);  // the slot fires here
    EXPECT_EQ(t.available(), 4u);
}

TEST(CreditPool, ZeroDelayReturnInsideAnEventPassesAfterIt)
{
    // A stats-priority event records a zero-delay return: its slot
    // orders before the event, but was reserved during it, so it
    // passes only once the event is done.
    Kernel k;
    CreditPool t(k, 4);
    std::vector<std::uint32_t> seen;
    t.consume(4);
    k.scheduleAt(
        5,
        [&] {
            t.refundIn(0, 4);
            seen.push_back(t.available());
        },
        EventPriority::kStats);
    k.scheduleAt(5, [&] { seen.push_back(t.available()); },
                 EventPriority::kStop);
    k.run();
    EXPECT_EQ(seen, (std::vector<std::uint32_t>{0, 4}));
}

TEST(CreditPool, StoppedRunKeepsTheFrontierAtTheLastEvent)
{
    Kernel k;
    CreditPool t(k, 4);
    t.consume(4);
    k.scheduleAt(10, [&] {
        t.refundIn(0, 4);
        k.stop();
    });
    k.scheduleAt(20, [] {});
    k.run(50);
    EXPECT_EQ(k.now(), 10u);
    EXPECT_EQ(t.available(), 0u);
    k.run(50);
    EXPECT_EQ(t.available(), 4u);
}

TEST(CreditPool, ArmWithoutAFailedConsume)
{
    // arm() is for callbacks that also retry work blocked elsewhere:
    // it wakes at the next return even though credits are plentiful.
    Kernel k;
    CreditPool t(k, 8);
    int fires = 0;
    t.setOnAvailable([&] { ++fires; });
    t.consume(1);
    t.refundIn(10, 1);
    t.arm();
    k.run();
    EXPECT_EQ(fires, 1);
    EXPECT_EQ(k.now(), 10u);
}

TEST(CreditPool, TotalConsumedAccumulates)
{
    Kernel k;
    CreditPool t(k, 8);
    t.consume(3);
    t.refundIn(0, 3);
    t.consume(5);
    EXPECT_EQ(t.totalConsumed(), 8u);
}

TEST(CreditPool, OverConsumePanics)
{
    Kernel k;
    CreditPool t(k, 4);
    t.consume(3);
    EXPECT_THROW(t.consume(2), PanicError);
}

TEST(CreditPool, OverRefundPanics)
{
    Kernel k;
    CreditPool t(k, 4);
    t.consume(1);
    EXPECT_THROW(t.refundIn(0, 2), PanicError);
    // Pending returns count toward the cap too.
    t.refundIn(5, 1);
    EXPECT_THROW(t.refundIn(5, 1), PanicError);
}

TEST(CreditPool, ZeroCapacityPanics)
{
    Kernel k;
    EXPECT_THROW(CreditPool(k, 0), PanicError);
}

TEST(CreditPool, ModelsLinkBuffer)
{
    // 64-flit RX buffer: seven 9-flit packets fit, the eighth stalls.
    Kernel k;
    CreditPool t(k, 64);
    int sent = 0;
    while (t.canConsume(9)) {
        t.consume(9);
        ++sent;
    }
    EXPECT_EQ(sent, 7);
    EXPECT_EQ(t.available(), 1u);
}

TEST(CreditPool, ManyPendingReturnsStayInOrder)
{
    // More pending returns than the ring's first allocation.
    Kernel k;
    CreditPool t(k, 64);
    t.consume(64);
    for (Tick i = 1; i <= 64; ++i)
        t.refundIn(i, 1);
    for (Tick i = 1; i <= 64; i += 7) {
        k.run(i);
        EXPECT_EQ(t.available(), i);
    }
    k.run(64);
    EXPECT_EQ(t.available(), 64u);
}

}  // namespace
}  // namespace hmcsim
