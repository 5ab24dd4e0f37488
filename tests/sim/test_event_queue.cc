#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/log.h"
#include "sim/event_queue.h"

namespace hmcsim {
namespace {

TEST(EventQueue, EmptyInitially)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.nextTime(), kTickNever);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    while (!q.empty())
        q.executeNext();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeFifoOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    while (!q.empty())
        q.executeNext();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, PriorityBreaksTies)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&] { order.push_back(2); }, EventPriority::kStats);
    q.schedule(5, [&] { order.push_back(1); }, EventPriority::kDefault);
    q.schedule(5, [&] { order.push_back(3); }, EventPriority::kStop);
    while (!q.empty())
        q.executeNext();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, ExecuteReturnsEventTime)
{
    EventQueue q;
    q.schedule(42, [] {});
    EXPECT_EQ(q.executeNext(), 42u);
}

TEST(EventQueue, EventsMayScheduleEvents)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1, [&] {
        ++fired;
        q.schedule(2, [&] { ++fired; });
    });
    while (!q.empty())
        q.executeNext();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, ExecutedCount)
{
    EventQueue q;
    for (int i = 0; i < 5; ++i)
        q.schedule(i, [] {});
    while (!q.empty())
        q.executeNext();
    EXPECT_EQ(q.executedCount(), 5u);
}

TEST(EventQueue, Clear)
{
    EventQueue q;
    q.schedule(1, [] { FAIL() << "cleared event must not run"; });
    q.clear();
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ClearDestroysEachPendingCaptureOnce)
{
    // Captures live in the queue's slot array, not in the bucket keys:
    // clear() must destroy every pending one exactly once -- ring,
    // far-future and clamped alike -- and none that already fired.
    auto token = std::make_shared<int>(0);
    EventQueue q;
    q.configure(64, 8);
    for (Tick t = 0; t < 40; ++t)
        q.schedule(t * 50, [token] { ++*token; });  // some beyond the ring
    q.schedule(5000000, [token] { ++*token; });
    EXPECT_EQ(token.use_count(), 42);
    for (int i = 0; i < 10; ++i)
        q.executeNext();
    EXPECT_EQ(*token, 10);
    EXPECT_EQ(token.use_count(), 32);
    q.schedule(0, [token] { ++*token; });  // clamped into the current bucket
    EXPECT_EQ(token.use_count(), 33);
    q.clear();
    EXPECT_EQ(token.use_count(), 1);

    // The queue is reusable after clear(), slots included.
    q.schedule(7, [token] { ++*token; });
    q.executeNext();
    EXPECT_EQ(*token, 11);
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, DestructorDestroysEachPendingCaptureOnce)
{
    auto token = std::make_shared<int>(0);
    {
        EventQueue q;
        for (Tick t = 0; t < 100; ++t)
            q.schedule(t * 100000, [token] { ++*token; });
        for (int i = 0; i < 30; ++i)
            q.executeNext();
        EXPECT_EQ(token.use_count(), 71);
    }
    EXPECT_EQ(*token, 30);
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, HandlerMayGrowTheSlotArray)
{
    // A handler that schedules far more events than are pending grows
    // the slot array while it runs.  Its capture must stay intact
    // after those schedules: the queue moves the callback out of its
    // slot before invoking it.
    auto token = std::make_shared<int>(0);
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&q, &fired, token, payload = 1234] {
        for (int i = 0; i < 5000; ++i)
            q.schedule(20 + static_cast<Tick>(i % 97), [&fired] { ++fired; });
        // Read the capture after the growth.
        EXPECT_EQ(payload, 1234);
        EXPECT_EQ(token.use_count(), 2);
        ++*token;
    });
    EXPECT_EQ(q.executeNext(), 10u);
    EXPECT_EQ(*token, 1);
    EXPECT_EQ(token.use_count(), 1);  // the fired capture is destroyed
    EXPECT_EQ(q.size(), 5000u);
    while (!q.empty())
        q.executeNext();
    EXPECT_EQ(fired, 5000);
}

TEST(EventQueue, NullEventPanics)
{
    EventQueue q;
    EXPECT_THROW(q.schedule(1, EventFn{}), PanicError);
}

TEST(EventQueue, ExecuteEmptyPanics)
{
    EventQueue q;
    EXPECT_THROW(q.executeNext(), PanicError);
}

TEST(EventQueue, LargeHeapStaysSorted)
{
    EventQueue q;
    // Insert pseudo-random times, verify monotone execution.
    std::uint64_t s = 99;
    for (int i = 0; i < 2000; ++i) {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        q.schedule(s % 100000, [] {});
    }
    Tick last = 0;
    while (!q.empty()) {
        const Tick t = q.executeNext();
        EXPECT_GE(t, last);
        last = t;
    }
}

}  // namespace
}  // namespace hmcsim
