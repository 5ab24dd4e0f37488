/**
 * @file
 * Differential determinism tests: the calendar queue must execute
 * every workload in exactly the order a plain (time, priority, seq)
 * binary min-heap does.  The simulator's figures are pinned
 * bit-for-bit to that execution order, so any divergence here is a
 * correctness bug in the calendar, not a tuning matter.  The reference
 * heap lives here, in the test: it is an oracle, not an engine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/event_queue.h"

namespace hmcsim {
namespace {

/** Deterministic xorshift64 PRNG, seeded per scenario. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : s_(seed ? seed : 1) {}

    std::uint64_t
    next()
    {
        s_ ^= s_ << 13;
        s_ ^= s_ >> 7;
        s_ ^= s_ << 17;
        return s_;
    }

    /** Uniform in [0, n). */
    std::uint64_t next(std::uint64_t n) { return next() % n; }

  private:
    std::uint64_t s_;
};

/** One scheduled event in a replayable workload. */
struct Op {
    Tick when;
    int priority;
    int id;
};

/**
 * Reference queue: std::push_heap/pop_heap over (when, priority, seq),
 * with the EventQueue calls the workloads below use.
 */
class ReferenceQueue
{
  public:
    void
    schedule(Tick when, std::function<void()> fn, int priority = 0)
    {
        schedule(reserve(when, priority), std::move(fn));
    }

    EventSlot
    reserve(Tick when, int priority = 0)
    {
        return EventSlot{when, priority, seq_++};
    }

    void
    schedule(const EventSlot &slot, std::function<void()> fn)
    {
        heap_.push_back({slot.when, slot.priority, slot.seq, std::move(fn)});
        std::push_heap(heap_.begin(), heap_.end(), later);
    }

    /**
     * What EventQueue::scheduleRelay stands for: an event at @p at
     * (priority 0) that schedules @p fn at @p when.
     */
    EventSlot
    scheduleRelay(Tick at, Tick when, std::function<void()> fn)
    {
        const EventSlot relay = reserve(at);
        schedule(relay, [this, when, fn = std::move(fn)] {
            schedule(when, fn);
        });
        return relay;
    }

    bool empty() const { return heap_.empty(); }

    Tick nextTime() const { return heap_.front().when; }

    Tick
    executeNext()
    {
        std::pop_heap(heap_.begin(), heap_.end(), later);
        Entry e = std::move(heap_.back());
        heap_.pop_back();
        e.fn();
        return e.when;
    }

    void clear() { heap_.clear(); }

  private:
    struct Entry {
        Tick when;
        int priority;
        std::uint64_t seq;
        std::function<void()> fn;
    };

    static bool
    later(const Entry &a, const Entry &b)
    {
        return std::tie(a.when, a.priority, a.seq) >
               std::tie(b.when, b.priority, b.seq);
    }

    std::vector<Entry> heap_;
    std::uint64_t seq_ = 0;
};

/** The queues every workload runs on. */
enum class Engine {
    /** ReferenceQueue. */
    Reference,
    /** EventQueue at a deliberately small geometry (64 ps x 256
     *  buckets = 16 ns span), so the workloads exercise ring wrap,
     *  far-future migration, and empty-ring re-anchoring, not just
     *  the happy path. */
    SmallCalendar,
    /** EventQueue at 512 ps x 8 buckets (4 ns span): fewer buckets
     *  than one occupancy-bitmap word holds, so the bucket scan wraps
     *  inside a partial word. */
    TinyCalendar,
    /** A default-constructed EventQueue: the production geometry. */
    DefaultCalendar,
};

constexpr Engine kCalendars[] = {Engine::SmallCalendar, Engine::TinyCalendar,
                                 Engine::DefaultCalendar};

/** Run @p body on a fresh queue of @p engine. */
template <typename Body>
auto
withQueue(Engine engine, Body &&body)
{
    if (engine == Engine::Reference) {
        ReferenceQueue q;
        return body(q);
    }
    EventQueue q;
    if (engine == Engine::SmallCalendar)
        q.configure(64, 256);
    else if (engine == Engine::TinyCalendar)
        q.configure(512, 8);
    return body(q);
}

/** Run @p ops through a queue of @p engine; return execution order. */
std::vector<int>
execute(Engine engine, const std::vector<Op> &ops)
{
    return withQueue(engine, [&ops](auto &q) {
        std::vector<int> order;
        order.reserve(ops.size());
        for (const Op &op : ops)
            q.schedule(op.when,
                       [&order, id = op.id] { order.push_back(id); },
                       op.priority);
        while (!q.empty())
            q.executeNext();
        return order;
    });
}

/** Both calendars must match the reference order of @p ops exactly. */
void
expectIdenticalOrder(const std::vector<Op> &ops)
{
    const std::vector<int> ref = execute(Engine::Reference, ops);
    for (const Engine engine : kCalendars) {
        const std::vector<int> cal = execute(engine, ops);
        ASSERT_EQ(ref.size(), cal.size());
        for (std::size_t i = 0; i < ref.size(); ++i)
            ASSERT_EQ(ref[i], cal[i]) << "divergence at event " << i;
    }
}

TEST(QueueDifferential, RandomInterleavings)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        Rng rng(seed * 0x9e3779b97f4a7c15ull);
        std::vector<Op> ops;
        for (int i = 0; i < 500; ++i) {
            Op op;
            op.when = rng.next(5000);
            op.priority = 0;
            op.id = i;
            ops.push_back(op);
        }
        expectIdenticalOrder(ops);
    }
}

TEST(QueueDifferential, SameTickSamePriorityIsFifo)
{
    // Many events at few distinct (time, priority) keys: order within
    // a key must be schedule order in both engines.
    std::vector<Op> ops;
    for (int i = 0; i < 300; ++i) {
        Op op;
        op.when = static_cast<Tick>((i * 7) % 3) * 100;
        op.priority = 0;
        op.id = i;
        ops.push_back(op);
    }
    expectIdenticalOrder(ops);
}

TEST(QueueDifferential, CrossPriorityTies)
{
    // Interleave priorities at shared ticks, including events pushed
    // "behind" an already-pending higher-priority event at the same
    // tick (the calendar's rare rotate-insert path).
    const int prios[] = {EventPriority::kStop, EventPriority::kDefault,
                         EventPriority::kStats, EventPriority::kDefault};
    std::vector<Op> ops;
    Rng rng(42);
    for (int i = 0; i < 400; ++i) {
        Op op;
        op.when = rng.next(50) * 10;
        op.priority = prios[i % 4];
        op.id = i;
        ops.push_back(op);
    }
    expectIdenticalOrder(ops);
}

TEST(QueueDifferential, FarFutureInserts)
{
    // Times far beyond the calendar ring horizon force the far-future
    // heap and the empty-ring jump; mix them with near times so the
    // migration boundary is crossed repeatedly.
    Rng rng(7);
    std::vector<Op> ops;
    for (int i = 0; i < 400; ++i) {
        Op op;
        op.when = (i % 3 == 0) ? 1000000 + rng.next(1000000)
                               : rng.next(2000);
        op.priority = 0;
        op.id = i;
        ops.push_back(op);
    }
    expectIdenticalOrder(ops);
}

/**
 * Events scheduling events: replay the same self-scheduling program
 * on every engine and compare the full execution trace.  Delays are
 * drawn from a per-engine-independent PRNG stream keyed only by the
 * executing event's id, so every engine sees an identical program.
 */
std::vector<std::pair<Tick, int>>
runSelfScheduling(Engine engine)
{
    return withQueue(engine, [](auto &q) {
        std::vector<std::pair<Tick, int>> trace;
        int nextId = 0;
        // Seed events; each execution re-schedules up to two children
        // derived deterministically from its own id.
        std::function<void(int, int, Tick)> fire = [&](int id, int depth,
                                                       Tick when) {
            trace.emplace_back(when, id);
            if (depth >= 6)
                return;
            Rng rng(static_cast<std::uint64_t>(id) * 2654435761u + 1);
            const int children = 1 + static_cast<int>(rng.next(2));
            for (int c = 0; c < children; ++c) {
                const int cid = nextId++;
                // Mix of short, bucket-crossing, and far-future delays;
                // zero-delay children exercise the same-tick path.
                const Tick delay =
                    rng.next(4) == 0
                        ? 0
                        : rng.next(3) == 0 ? 100000 + rng.next(9999)
                                           : rng.next(700);
                const int prio = rng.next(5) == 0 ? EventPriority::kStats
                                                  : EventPriority::kDefault;
                const Tick cwhen = when + delay;
                q.schedule(cwhen,
                           [&fire, cid, depth, cwhen] {
                               fire(cid, depth + 1, cwhen);
                           },
                           prio);
            }
        };
        for (int i = 0; i < 8; ++i) {
            const int id = nextId++;
            const Tick when = static_cast<Tick>(i) * 37;
            q.schedule(when, [&fire, id, when] { fire(id, 0, when); });
        }
        while (!q.empty())
            q.executeNext();
        return trace;
    });
}

TEST(QueueDifferential, ScheduleFromWithinEvents)
{
    const auto ref = runSelfScheduling(Engine::Reference);
    for (const Engine engine : kCalendars) {
        const auto cal = runSelfScheduling(engine);
        ASSERT_EQ(ref.size(), cal.size());
        for (std::size_t i = 0; i < ref.size(); ++i) {
            ASSERT_EQ(ref[i].first, cal[i].first) << "time diverged at " << i;
            ASSERT_EQ(ref[i].second, cal[i].second) << "id diverged at " << i;
        }
    }
}

/**
 * A sparse self-scheduling program, the schedule pattern of a lightly
 * loaded simulation: a few chains of events whose gaps mostly span
 * many empty buckets (>= 64 at the default 512 ps width, so the ring
 * jumps over whole bitmap words) and wrap the ring, some lying beyond
 * its horizon so they are pulled in after a multi-bucket jump.  Every
 * time is a multiple of 512 ps, a bucket start at every geometry
 * here, so a zero-delay child is a clamped insert into the current
 * bucket -- usually just emptied by the event scheduling it.
 */
std::vector<std::pair<Tick, int>>
runSparse(Engine engine)
{
    return withQueue(engine, [](auto &q) {
        std::vector<std::pair<Tick, int>> trace;
        int nextId = 0;
        std::function<void(int, int, Tick)> fire = [&](int id, int depth,
                                                       Tick when) {
            trace.emplace_back(when, id);
            if (depth >= 80)
                return;
            Rng rng(static_cast<std::uint64_t>(id) * 2654435761u + 3);
            const auto child = [&](Tick delay, int prio, int childDepth) {
                const int cid = nextId++;
                const Tick cwhen = when + delay;
                q.schedule(cwhen,
                           [&fire, cid, childDepth, cwhen] {
                               fire(cid, childDepth, cwhen);
                           },
                           prio);
            };
            Tick delay;
            switch (rng.next(8)) {
              case 0:
                delay = 0;
                break;
              case 1:  // beyond the default ring's ~2.1 us horizon
                delay = 3000000 + 512 * rng.next(4000);
                break;
              case 2:
              case 3:
              case 4:
                delay = 512 * (1 + rng.next(15));
                break;
              default:
                delay = 512 * (64 + rng.next(192));
                break;
            }
            child(delay, EventPriority::kDefault, depth + 1);
            // A same-time leaf, sometimes behind a stats-priority one.
            if (rng.next(4) == 0)
                child(0,
                      rng.next(2) == 0 ? EventPriority::kStats
                                       : EventPriority::kDefault,
                      80);
        };
        for (int i = 0; i < 8; ++i) {
            const int id = nextId++;
            const Tick when = static_cast<Tick>(i) * 3 * 512;
            q.schedule(when, [&fire, id, when] { fire(id, 0, when); });
        }
        while (!q.empty())
            q.executeNext();
        return trace;
    });
}

TEST(QueueDifferential, SparseJumpsWrapTheRing)
{
    const auto ref = runSparse(Engine::Reference);
    ASSERT_GT(ref.size(), 640u);
    // The program spans many default ring horizons (~2.1 us each).
    ASSERT_GT(ref.back().first, 10u * 512u * 4096u);
    for (const Engine engine : kCalendars) {
        const auto cal = runSparse(engine);
        ASSERT_EQ(ref.size(), cal.size());
        for (std::size_t i = 0; i < ref.size(); ++i) {
            ASSERT_EQ(ref[i].first, cal[i].first) << "time diverged at " << i;
            ASSERT_EQ(ref[i].second, cal[i].second) << "id diverged at " << i;
        }
    }
}

/**
 * Relays, as the NoC routers use them for arrivals: a self-scheduling
 * program in which some children are scheduled through a relay at a
 * time between their parent and themselves.  The reference runs each
 * relay as the event it replaces, so every real event must still fire
 * in the same order.  Relays resolve in nextTime(), which the run
 * loop calls before each executeNext().
 */
std::vector<std::pair<Tick, int>>
runWithRelays(Engine engine)
{
    return withQueue(engine, [](auto &q) {
        std::vector<std::pair<Tick, int>> trace;
        int nextId = 0;
        std::function<void(int, int, Tick)> fire = [&](int id, int depth,
                                                       Tick when) {
            trace.emplace_back(when, id);
            if (depth >= 7)
                return;
            Rng rng(static_cast<std::uint64_t>(id) * 2654435761u + 11);
            const int children = 1 + static_cast<int>(rng.next(2));
            for (int c = 0; c < children; ++c) {
                const int cid = nextId++;
                // Delays on a 100 ps grid so relays, their events and
                // plain events keep meeting on the same ticks.
                const Tick delay = rng.next(5) == 0
                                       ? 100000 + 100 * rng.next(99)
                                       : 100 * rng.next(12);
                const Tick cwhen = when + delay;
                auto child = [&fire, cid, depth, cwhen] {
                    fire(cid, depth + 1, cwhen);
                };
                if (rng.next(2) == 0)
                    q.scheduleRelay(when + 100 * rng.next(delay / 100 + 1),
                                    cwhen, child);
                else
                    q.schedule(cwhen, child);
            }
        };
        for (int i = 0; i < 8; ++i) {
            const int id = nextId++;
            const Tick when = static_cast<Tick>(i) * 100;
            q.schedule(when, [&fire, id, when] { fire(id, 0, when); });
        }
        while (!q.empty()) {
            q.nextTime();
            q.executeNext();
        }
        return trace;
    });
}

TEST(QueueDifferential, RelaysFireLikeTheEventsTheyReplace)
{
    const auto ref = runWithRelays(Engine::Reference);
    ASSERT_GT(ref.size(), 300u);
    for (const Engine engine : kCalendars) {
        const auto cal = runWithRelays(engine);
        ASSERT_EQ(ref.size(), cal.size());
        for (std::size_t i = 0; i < ref.size(); ++i) {
            ASSERT_EQ(ref[i].first, cal[i].first) << "time diverged at " << i;
            ASSERT_EQ(ref[i].second, cal[i].second) << "id diverged at " << i;
        }
    }
}

/**
 * Reserved slots, as the credit pools use them: events reserve slots
 * for their children and schedule into some of them only later --
 * from other events, out of reservation order -- and leave others
 * empty.  Redeeming a slot draws from the redeeming event's PRNG
 * stream and the (engine-independent) parked list, so every engine
 * runs the same program.
 */
std::vector<std::pair<Tick, int>>
runWithReservations(Engine engine)
{
    return withQueue(engine, [](auto &q) {
        struct Parked {
            EventSlot slot;
            int id;
            int depth;
        };
        std::vector<std::pair<Tick, int>> trace;
        std::vector<Parked> parked;
        int nextId = 0;
        std::function<void(int, int, Tick)> fire = [&](int id, int depth,
                                                       Tick when) {
            trace.emplace_back(when, id);
            Rng rng(static_cast<std::uint64_t>(id) * 2654435761u + 7);
            // Redeem parked slots that are still ahead.
            for (std::size_t k = 0; k < parked.size();) {
                if (parked[k].slot.when < when || rng.next(3) != 0) {
                    ++k;
                    continue;
                }
                const Parked p = parked[k];
                parked.erase(parked.begin() + static_cast<std::ptrdiff_t>(k));
                q.schedule(p.slot, [&fire, p] {
                    fire(p.id, p.depth + 1, p.slot.when);
                });
            }
            if (depth >= 6)
                return;
            const int children = 1 + static_cast<int>(rng.next(2));
            for (int c = 0; c < children; ++c) {
                const int cid = nextId++;
                // Coarse delays, so slots share (time, priority) with
                // events taken before and after them and only the seq
                // orders them; some lie beyond the ring horizon.
                const Tick delay = rng.next(3) == 0
                                       ? 100000 + 100 * rng.next(10)
                                       : 100 * rng.next(8);
                const int prio = rng.next(5) == 0 ? EventPriority::kStats
                                                  : EventPriority::kDefault;
                const EventSlot slot = q.reserve(when + delay, prio);
                const auto child = [&fire, cid, depth, slot] {
                    fire(cid, depth + 1, slot.when);
                };
                switch (rng.next(3)) {
                  case 0:
                    parked.push_back(Parked{slot, cid, depth});
                    break;
                  case 1:
                    q.schedule(slot, child);
                    break;
                  default:
                    // A plain event; the reserved slot stays empty.
                    q.schedule(slot.when, child, prio);
                    break;
                }
            }
        };
        for (int i = 0; i < 8; ++i) {
            const int id = nextId++;
            const Tick when = static_cast<Tick>(i) * 37;
            q.schedule(when, [&fire, id, when] { fire(id, 0, when); });
        }
        while (!q.empty())
            q.executeNext();
        return trace;
    });
}

TEST(QueueDifferential, ReservedSlotsFireInHeapOrder)
{
    const auto ref = runWithReservations(Engine::Reference);
    ASSERT_GT(ref.size(), 50u);
    for (const Engine engine : kCalendars) {
        const auto cal = runWithReservations(engine);
        ASSERT_EQ(ref.size(), cal.size());
        for (std::size_t i = 0; i < ref.size(); ++i) {
            ASSERT_EQ(ref[i].first, cal[i].first) << "time diverged at " << i;
            ASSERT_EQ(ref[i].second, cal[i].second) << "id diverged at " << i;
        }
    }
}

/**
 * Execute half a workload, clear(), then replay a second workload on
 * the same queue object; return the combined execution order.
 * Exercises the clear()-then-reuse path: the ring anchor, the
 * far-future heap, and the FIFO sequence counter must all reset so the
 * second life of the queue behaves exactly like a fresh one.
 */
std::vector<int>
executeWithClear(Engine engine, const std::vector<Op> &first,
                 const std::vector<Op> &second)
{
    return withQueue(engine, [&first, &second](auto &q) {
        std::vector<int> order;
        for (const Op &op : first)
            q.schedule(op.when,
                       [&order, id = op.id] { order.push_back(id); },
                       op.priority);
        for (std::size_t i = 0; i < first.size() / 2 && !q.empty(); ++i)
            q.executeNext();
        q.clear();
        EXPECT_TRUE(q.empty());
        for (const Op &op : second)
            q.schedule(op.when,
                       [&order, id = op.id] { order.push_back(id); },
                       op.priority);
        while (!q.empty())
            q.executeNext();
        return order;
    });
}

TEST(QueueDifferential, ClearThenReuse)
{
    // First life: a mix of near and far-future times so clear() has to
    // discard state in both the ring and the overflow heap.  Second
    // life: small times again (behind the discarded far-future ones),
    // same-key runs to check the FIFO counter, and a far insert.
    Rng rng(99);
    std::vector<Op> first;
    for (int i = 0; i < 200; ++i) {
        Op op;
        op.when = (i % 4 == 0) ? 500000 + rng.next(100000) : rng.next(3000);
        op.priority = 0;
        op.id = i;
        first.push_back(op);
    }
    std::vector<Op> second;
    for (int i = 0; i < 200; ++i) {
        Op op;
        // Many same-(time, priority) keys: FIFO order within a key
        // must restart cleanly after clear().
        op.when = rng.next(8) * 100;
        op.priority = (i % 5 == 0) ? EventPriority::kStats
                                   : EventPriority::kDefault;
        op.id = 1000 + i;
        second.push_back(op);
    }
    Op far;
    far.when = 2000000;
    far.priority = 0;
    far.id = 9999;
    second.push_back(far);

    const auto ref = executeWithClear(Engine::Reference, first, second);
    for (const Engine engine : kCalendars) {
        const auto cal = executeWithClear(engine, first, second);
        ASSERT_EQ(ref.size(), cal.size());
        for (std::size_t i = 0; i < ref.size(); ++i)
            ASSERT_EQ(ref[i], cal[i]) << "divergence at event " << i;
    }
}

TEST(QueueDifferential, MonotoneNonDecreasingFireTimes)
{
    // The calendar clamps past-times into the current bucket; fire
    // times reported by executeNext must still be non-decreasing for
    // in-order workloads on every engine.
    for (const Engine engine :
         {Engine::Reference, Engine::SmallCalendar,
          Engine::DefaultCalendar}) {
        withQueue(engine, [](auto &q) {
            Rng rng(1234);
            for (int i = 0; i < 1000; ++i)
                q.schedule(rng.next(30000), [] {});
            Tick last = 0;
            while (!q.empty()) {
                const Tick t = q.executeNext();
                EXPECT_GE(t, last);
                last = t;
            }
        });
    }
}

}  // namespace
}  // namespace hmcsim
