#include <gtest/gtest.h>

#include <vector>

#include "common/log.h"
#include "sim/kernel.h"

namespace hmcsim {
namespace {

TEST(Kernel, TimeAdvancesWithEvents)
{
    Kernel k;
    Tick seen = 0;
    k.scheduleIn(100, [&] { seen = k.now(); });
    k.run();
    EXPECT_EQ(seen, 100u);
    EXPECT_EQ(k.now(), 100u);
}

TEST(Kernel, RunUntilHorizonLeavesLaterEvents)
{
    Kernel k;
    int fired = 0;
    k.scheduleIn(10, [&] { ++fired; });
    k.scheduleIn(1000, [&] { ++fired; });
    k.run(500);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(k.now(), 500u);  // advanced to the horizon
    k.run(2000);
    EXPECT_EQ(fired, 2);
}

TEST(Kernel, EventExactlyAtHorizonRuns)
{
    Kernel k;
    bool fired = false;
    k.scheduleIn(100, [&] { fired = true; });
    k.run(100);
    EXPECT_TRUE(fired);
}

TEST(Kernel, ScheduleAtPastPanics)
{
    Kernel k;
    k.scheduleIn(50, [] {});
    k.run();
    EXPECT_THROW(k.scheduleAt(10, [] {}), PanicError);
}

TEST(Kernel, StopEndsRun)
{
    Kernel k;
    int fired = 0;
    k.scheduleIn(1, [&] {
        ++fired;
        k.stop();
    });
    k.scheduleIn(2, [&] { ++fired; });
    k.run();
    EXPECT_EQ(fired, 1);
    // A fresh run resumes with the remaining event.
    k.run();
    EXPECT_EQ(fired, 2);
}

TEST(Kernel, RunReturnsExecutedCount)
{
    Kernel k;
    for (int i = 0; i < 7; ++i)
        k.scheduleIn(i + 1, [] {});
    EXPECT_EQ(k.run(), 7u);
}

TEST(Kernel, RunUntilPredicate)
{
    Kernel k;
    int count = 0;
    for (int i = 1; i <= 10; ++i)
        k.scheduleIn(i, [&] { ++count; });
    k.runUntil([&] { return count >= 4; });
    EXPECT_EQ(count, 4);
    EXPECT_EQ(k.now(), 4u);
}

TEST(Kernel, RunUntilPredicateAlreadyTrue)
{
    Kernel k;
    bool fired = false;
    k.scheduleIn(1, [&] { fired = true; });
    k.runUntil([] { return true; });
    EXPECT_FALSE(fired);
}

TEST(Kernel, RunUntilIdleAdvancesToHorizon)
{
    // Regression: runUntil used to leave now() at the last executed
    // event when the queue drained before the horizon, so back-to-back
    // measurement windows lost the idle tail.  It must advance to the
    // horizon exactly like run() does when the predicate never fires.
    Kernel k;
    int fired = 0;
    k.scheduleIn(10, [&] { ++fired; });
    k.runUntil([] { return false; }, 500);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(k.now(), 500u);
    // The advance must not manufacture time when the predicate ended
    // the run: covered by RunUntilPredicate (now() == 4 there).
}

TEST(Kernel, RunUntilStopSuppressesIdleAdvance)
{
    // stop() ends the run at a meaningful simulated time; the idle
    // horizon advance must not overwrite it.
    Kernel k;
    k.scheduleIn(10, [&] { k.stop(); });
    k.runUntil([] { return false; }, 500);
    EXPECT_EQ(k.now(), 10u);
}

TEST(Kernel, RelayTakesItsPlaceAtTheRelayTime)
{
    // A relay at 100 for an event at 300 orders like an event that an
    // event at 100 scheduled: after events scheduled before 100 for
    // 300, before those scheduled after it.
    Kernel k;
    std::vector<int> order;
    k.scheduleRelay(100, 300, [&order] { order.push_back(1); });
    k.scheduleAt(300, [&order] { order.push_back(0); });
    k.scheduleAt(200, [&] {
        k.scheduleAt(300, [&order] { order.push_back(2); });
    });
    const std::uint64_t executed = k.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(executed, 4u);  // the relay is not an event
    EXPECT_EQ(k.eventsExecuted(), 4u);
}

TEST(Kernel, RelayBeyondTheHorizonWaitsForTheNextRun)
{
    // A run stopping before the relay time leaves the relay unresolved,
    // so an event scheduled between runs still orders ahead of it.
    Kernel k;
    std::vector<int> order;
    k.scheduleRelay(500, 600, [&order] { order.push_back(1); });
    k.scheduleAt(1000, [] {});
    k.run(400);
    k.scheduleAt(600, [&order] { order.push_back(0); });
    k.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(Kernel, RelayInThePastPanics)
{
    Kernel k;
    k.scheduleAt(100, [] {});
    k.run();
    EXPECT_THROW(k.scheduleRelay(50, 200, [] {}), PanicError);
    EXPECT_THROW(k.scheduleRelay(200, 150, [] {}), PanicError);
}

TEST(Kernel, ScheduleInOverflowPanics)
{
    // Regression: a delay that wraps the tick clock used to overflow
    // silently and schedule in the past (or panic with a misleading
    // "past" message); it must be diagnosed as an overflow up front.
    Kernel k;
    k.scheduleIn(50, [] {});
    k.run();
    EXPECT_THROW(k.scheduleIn(kTickNever, [] {}), PanicError);
    EXPECT_THROW(k.scheduleIn(kTickNever - 49, [] {}), PanicError);
    // The largest non-wrapping delay still schedules fine.
    k.scheduleIn(kTickNever - 50, [] {});
}

TEST(Kernel, SelfReschedulingLoopStopsAtHorizon)
{
    Kernel k;
    int ticks = 0;
    std::function<void()> loop = [&] {
        ++ticks;
        k.scheduleIn(10, loop);
    };
    k.scheduleIn(10, loop);
    k.run(100);
    EXPECT_EQ(ticks, 10);
}

}  // namespace
}  // namespace hmcsim
