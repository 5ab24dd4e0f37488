/**
 * @file
 * Discrete-event queue: the heart of the cycle-level simulator.
 *
 * Events are ordered by (time, priority, insertion sequence).  The
 * sequence number guarantees FIFO order among same-time same-priority
 * events, which keeps simulations deterministic regardless of queue
 * internals.
 *
 * The queue is a two-level calendar tuned for the simulator's schedule
 * pattern (almost all events land within a few link/DRAM latencies of
 * now, densely packed in time).  Near-future events go into a
 * power-of-two ring of time buckets; far-future events wait in an
 * overflow min-heap and are pulled into the ring lazily as it
 * advances.  Buckets append unsorted and sort lazily only when a
 * bucket becomes current, so schedule() is O(1) and executeNext() is
 * amortized O(k log k) over the handful of events sharing a bucket.
 *
 * The ordering is exact for every ring geometry: for any interleaving
 * of schedule() and executeNext() calls events fire in the sequence a
 * plain (time, priority, seq) min-heap would produce (guarded by
 * tests/sim/test_queue_differential.cc against a reference heap that
 * lives in the test, and by tests/host/test_engine_identity.cc across
 * geometries), so the sim.calendar_* knobs can never change simulation
 * results, only wall-clock speed.  The one adversarial geometry -- a
 * large pending set whose delays are all much smaller than one bucket
 * -- makes out-of-order inserts into the current bucket quadratic;
 * bench/micro_kernel.cc's skew sweep measures it.
 */

#ifndef HMCSIM_SIM_EVENT_QUEUE_H_
#define HMCSIM_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "sim/inline_event.h"
#include "sim/sim_config.h"

namespace hmcsim {

/** Callback type executed when an event fires. */
using EventFn = InlineEvent;

/** Scheduling priorities; lower value fires first at equal time. */
struct EventPriority {
    static constexpr int kDefault = 0;
    /** Stat-window boundaries run after all same-tick model activity. */
    static constexpr int kStats = 100;
    /** Simulation-stop sentinels run last. */
    static constexpr int kStop = 1000;
};

class EventQueue
{
  public:
    /** Calendar ring at the default geometry (SimConfig defaults). */
    EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Set the calendar geometry.  Width and bucket count must be
     * powers of two; the ring is rebuilt only if the geometry changes.
     * Panics if events are pending -- reconfigure only before the
     * first schedule() or after clear().
     */
    void configure(std::uint64_t bucketWidth, std::uint64_t numBuckets);
    void
    configure(const SimConfig &cfg)
    {
        configure(cfg.calendarBucketPs, cfg.calendarBuckets);
    }

    /**
     * Schedule @p fn at absolute time @p when.
     * Inline so the common case -- a future time inside the ring
     * horizon appending to its bucket -- compiles to a handful of
     * instructions at the call site; clamped and far-future inserts
     * take the out-of-line path.
     */
    void
    schedule(Tick when, EventFn fn, int priority = 0)
    {
        if (!fn)
            panicNullEvent();
        const std::uint64_t seq = nextSeq_++;
        ++size_;
        if (when > curBucketStart_ && when - curBucketStart_ < ringSpan()) {
            append(ring_[static_cast<std::size_t>(when >> shift_) &
                         ringMask_],
                   when, priority, seq, std::move(fn));
            return;
        }
        pushSlow(when, priority, seq, std::move(fn));
    }

    /** True if no events are pending. */
    bool empty() const { return size_ == 0; }

    /** Number of pending events. */
    std::size_t size() const { return size_; }

    /** Time of the earliest pending event; kTickNever if empty. */
    Tick
    nextTime() const
    {
        if (size_ == 0)
            return kTickNever;
        const Bucket &b = ring_[curIdx_];
        if (b.sorted)  // sorted implies current and non-empty
            return b.v[b.head].when;
        // peek lazily advances the ring and sorts the current bucket
        // -- internal bookkeeping that never changes the abstract
        // queue state, so nextTime stays logically const.
        return const_cast<EventQueue *>(this)->peek()->when;
    }

    /**
     * Pop and execute the earliest event.
     * @return the time the event fired.
     * Must not be called on an empty queue.
     */
    Tick
    executeNext()
    {
        if (size_ == 0)
            panicEmptyExecute();
        --size_;
        ++executed_;
        Bucket *b = &ring_[curIdx_];
        if (!b->sorted) {
            peek();  // advance + sort; may move the ring
            b = &ring_[curIdx_];
        }
        Entry &head = b->v[b->head];
        const Tick when = head.when;
        InlineEvent fn = std::move(head.fn);
        if (++b->head == b->v.size()) {
            b->v.clear();
            b->head = 0;
            b->sorted = false;
        }
        --ringCount_;
        // The queue is fully updated before the callback runs: event
        // handlers re-enter schedule().
        fn();
        return when;
    }

    /** Total events executed so far (for engine micro-benchmarks). */
    std::uint64_t executedCount() const { return executed_; }

    /** Drop every pending event. */
    void clear();

  private:
    struct Entry {
        Tick when;
        int priority;
        std::uint64_t seq;
        InlineEvent fn;

        Entry(Tick w, int p, std::uint64_t s, InlineEvent &&f)
            : when(w), priority(p), seq(s), fn(std::move(f))
        {
        }
    };

    /**
     * The event order, and the only place it is spelled out: true when
     * @p a fires after @p b.
     */
    static bool
    firesAfter(const Entry &a, const Entry &b)
    {
        if (a.when != b.when)
            return a.when > b.when;
        if (a.priority != b.priority)
            return a.priority > b.priority;
        return a.seq > b.seq;
    }

    /** firesAfter for the std heap algorithms (earliest on top). */
    struct Later {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            return firesAfter(a, b);
        }
    };
    /** Ascending fire order, for sorting buckets. */
    struct Earlier {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            return firesAfter(b, a);
        }
    };

    /**
     * A ring bucket.  Future buckets accumulate entries unsorted; when
     * a bucket becomes current it is sorted once into ascending fire
     * order and drained through the head cursor (pop is O(1), no
     * element ever moves).  Entries scheduled into the current bucket
     * almost always carry the largest (when, priority, seq) key in it
     * -- fresh events at the current tick get monotonically increasing
     * seq -- so they append in O(1) too; the rare out-of-order insert
     * shifts the later entries up one slot.
     */
    struct Bucket {
        std::vector<Entry> v;
        std::size_t head = 0; ///< next entry to pop (earlier are husks)
        bool sorted = false;  ///< v[head..) is in ascending fire order
    };

    /** Add an entry to @p b, keeping a sorted bucket in fire order. */
    void
    append(Bucket &b, Tick when, int priority, std::uint64_t seq,
           InlineEvent &&fn)
    {
        ++ringCount_;
        const bool sorted = b.sorted;
        b.v.emplace_back(when, priority, seq, std::move(fn));
        // Only the current bucket is ever sorted, and it is non-empty
        // (it resets to unsorted when drained), so v[size - 2] is a
        // live entry.
        if (sorted && !firesAfter(b.v.back(), b.v[b.v.size() - 2]))
            settleBack(b);
    }

    /** Rare out-of-order insert: move v.back() into fire order. */
    static void settleBack(Bucket &b);
    /** Clamped-to-now and beyond-horizon inserts. */
    void pushSlow(Tick when, int priority, std::uint64_t seq,
                  InlineEvent &&fn);
    /** Earliest pending entry; advances the ring to its bucket. */
    Entry *peek();
    /** Move far-future entries now below the ring horizon into it. */
    void pullFar();
    /** Re-anchor an empty ring at the earliest far-future entry. */
    void jumpToFar();

    Tick ringSpan() const { return Tick(ring_.size()) << shift_; }

    [[noreturn]] static void panicNullEvent();
    [[noreturn]] static void panicEmptyExecute();

    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::size_t size_ = 0;

    std::vector<Bucket> ring_;
    std::size_t ringMask_ = 0;
    unsigned shift_ = 0;        ///< log2(bucket width in ticks)
    std::size_t curIdx_ = 0;
    Tick curBucketStart_ = 0;   ///< inclusive start of the current bucket
    std::size_t ringCount_ = 0; ///< pending entries resident in the ring
    std::vector<Entry> far_;    ///< min-heap of entries beyond the ring
};

}  // namespace hmcsim

#endif  // HMCSIM_SIM_EVENT_QUEUE_H_
