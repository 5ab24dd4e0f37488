/**
 * @file
 * Discrete-event queue: the heart of the cycle-level simulator.
 *
 * Events are ordered by (time, priority, insertion sequence).  The
 * sequence number guarantees FIFO order among same-time same-priority
 * events, which keeps simulations deterministic regardless of queue
 * internals.
 *
 * Two interchangeable implementations live behind the one API, selected
 * by configure() (sim.event_queue):
 *
 *  - heap: a move-based binary min-heap.  The reference implementation;
 *    simple, allocation-free after warmup, used for differential
 *    testing.
 *
 *  - calendar: a two-level calendar queue tuned for the simulator's
 *    schedule pattern (almost all events land within a few link/DRAM
 *    latencies of now, densely packed in time).  Near-future events go
 *    into a power-of-two ring of time buckets; far-future events wait
 *    in an overflow min-heap and are pulled into the ring lazily as it
 *    advances.  Buckets append unsorted and sort lazily only when a
 *    bucket becomes current, so schedule() is O(1) and executeNext()
 *    is amortized O(k log k) over the handful of events sharing a
 *    bucket -- beating the heap's O(log n) over the full pending set.
 *
 * Both orderings are exact: for any interleaving of schedule() and
 * executeNext() calls the two modes fire events in the identical
 * sequence (guarded by tests/sim/test_queue_differential.cc), so the
 * knob can never change simulation results, only wall-clock speed.
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
    EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Select the implementation and (for calendar) its geometry.
     * Width and bucket count must be powers of two.  Panics if events
     * are pending -- reconfigure only before the first schedule() or
     * after clear().
     */
    void configure(EventQueueKind kind, std::uint64_t bucketWidth,
                   std::uint64_t numBuckets);
    void
    configure(const SimConfig &cfg)
    {
        configure(cfg.queueKind(), cfg.calendarBucketPs, cfg.calendarBuckets);
    }

    EventQueueKind kind() const { return kind_; }

    /**
     * Schedule @p fn at absolute time @p when.
     * Inline so the common calendar case -- a future time inside the
     * ring horizon appending to its bucket -- compiles to a handful of
     * instructions at the call site; clamped, far-future, out-of-order
     * and heap-mode inserts take the out-of-line paths.
     */
    void
    schedule(Tick when, EventFn fn, int priority = 0)
    {
        if (!fn)
            panicNullEvent();
        const std::uint64_t seq = nextSeq_++;
        ++size_;
        if (kind_ == EventQueueKind::Calendar) {
            if (when > curBucketStart_ &&
                when - curBucketStart_ < ringSpan()) {
                Bucket &b =
                    ring_[static_cast<std::size_t>(when >> shift_) &
                          ringMask_];
                ++ringCount_;
                if (!b.sorted) {
                    b.v.emplace_back(when, priority, seq, std::move(fn));
                    return;
                }
                // Only the current bucket is ever sorted, and it is
                // non-empty (it resets to unsorted when drained).  The
                // common case -- fresh events at the current tick carry
                // a larger seq than everything pending -- appends
                // straight into place.
                const Entry &last = b.v.back();
                const bool firesAfter =
                    when != last.when
                        ? when > last.when
                        : priority != last.priority
                              ? priority > last.priority
                              : seq > last.seq;
                if (firesAfter) {
                    b.v.emplace_back(when, priority, seq, std::move(fn));
                    return;
                }
                calendarInsertSorted(b, when, priority, seq,
                                     std::move(fn));
                return;
            }
            calendarPushSlow(when, priority, seq, std::move(fn));
            return;
        }
        heapPush(Entry(when, priority, seq, std::move(fn)));
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
        if (kind_ == EventQueueKind::Calendar) {
            const Bucket &b = ring_[curIdx_];
            if (b.sorted)  // sorted implies current and non-empty
                return b.v[b.head].when;
            // calendarPeek lazily advances the ring and sorts the
            // current bucket -- internal bookkeeping that never changes
            // the abstract queue state, so nextTime stays logically
            // const.
            return const_cast<EventQueue *>(this)->calendarPeek()->when;
        }
        return heap_.front().when;
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
        InlineEvent fn;
        Tick when = 0;
        if (kind_ == EventQueueKind::Calendar) {
            Bucket *b = &ring_[curIdx_];
            if (!b->sorted) {
                calendarPeek();  // advance + sort; may move the ring
                b = &ring_[curIdx_];
            }
            Entry &head = b->v[b->head];
            when = head.when;
            fn = std::move(head.fn);
            if (++b->head == b->v.size()) {
                b->v.clear();
                b->head = 0;
                b->sorted = false;
            }
            --ringCount_;
        } else {
            Entry e = heapPop();
            when = e.when;
            fn = std::move(e.fn);
        }
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

    /** True when @p a fires after @p b. */
    static bool
    laterThan(const Entry &a, const Entry &b)
    {
        if (a.when != b.when)
            return a.when > b.when;
        if (a.priority != b.priority)
            return a.priority > b.priority;
        return a.seq > b.seq;
    }

    // -- heap mode (move-based sift; no Entry copies) ------------------
    void heapPush(Entry &&e);
    Entry heapPop();

    // -- calendar mode -------------------------------------------------
    /**
     * A ring bucket.  Future buckets accumulate entries unsorted; when
     * a bucket becomes current it is sorted once into ascending fire
     * order and drained through the head cursor (pop is O(1), no
     * element ever moves).  Entries scheduled into the current bucket
     * almost always carry the largest (when, priority, seq) key in it
     * -- fresh events at the current tick get monotonically increasing
     * seq -- so they append in O(1) too; the rare out-of-order insert
     * rotates into place.
     */
    struct Bucket {
        std::vector<Entry> v;
        std::size_t head = 0; ///< next entry to pop (earlier are husks)
        bool sorted = false;  ///< v[head..) is in ascending fire order
    };

    /** Clamped-to-now and beyond-horizon inserts. */
    void calendarPushSlow(Tick when, int priority, std::uint64_t seq,
                          InlineEvent &&fn);
    /** Rare out-of-order insert into the sorted current bucket. */
    void calendarInsertSorted(Bucket &b, Tick when, int priority,
                              std::uint64_t seq, InlineEvent &&fn);
    /** Earliest pending entry; advances the ring to its bucket. */
    Entry *calendarPeek();
    /** Move far-future entries now below the ring horizon into it. */
    void pullFar();
    /** Re-anchor an empty ring at the earliest far-future entry. */
    void jumpToFar();

    Tick ringSpan() const { return Tick(ring_.size()) << shift_; }

    [[noreturn]] static void panicNullEvent();
    [[noreturn]] static void panicEmptyExecute();

    EventQueueKind kind_ = EventQueueKind::Heap;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::size_t size_ = 0;

    std::vector<Entry> heap_;

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
