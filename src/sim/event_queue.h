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
 * now).  Near-future events go into a power-of-two ring of time
 * buckets; far-future events wait in an overflow min-heap and are
 * pulled into the ring lazily as it advances.  Buckets append unsorted
 * and sort lazily only when a bucket becomes current, so schedule() is
 * O(1) and executeNext() is amortized O(k log k) over the handful of
 * events sharing a bucket.
 *
 * Buckets and the far heap hold only a trivially copyable 24-byte key
 * (time, seq, priority, slot).  Each callback is built once in a slot
 * of a chunked array on insert and runs in that slot when it fires;
 * sorting, heap sifts and bucket growth move keys, never captures.  A
 * relay (scheduleRelay) is a key whose sequence number is drawn when
 * the queue reaches its relay time -- an event's place among
 * same-time events without a callback run to take it.  A ring
 * occupancy bitmap (one bit per bucket) lets the ring jump straight to
 * the next non-empty bucket, so the cost of an idle stretch is one
 * word scan per 64 buckets, not one step per bucket.
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
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.h"
#include "sim/inline_event.h"
#include "sim/sim_config.h"

namespace hmcsim {

/** Callback type executed when an event fires. */
using EventFn = InlineEvent;

/**
 * A position in the event order: (time, priority, insertion sequence).
 * EventQueue::reserve hands one out without posting an event, so a
 * model can hold a timestamped fact (a credit return) in the exact
 * slot an event for it would have taken, and post an event there only
 * if someone turns out to need one.
 */
struct EventSlot {
    Tick when = 0;
    int priority = 0;
    std::uint64_t seq = 0;
};

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

    /** Schedule @p fn (a callable or an EventFn) at absolute time
     *  @p when. */
    template <typename F>
    void
    schedule(Tick when, F &&fn, int priority = 0)
    {
        insert(when, priority, nextSeq_++, std::forward<F>(fn));
    }

    /**
     * Take the slot schedule(@p when, ..., @p priority) would take now,
     * without posting an event.  Every later schedule() or reserve()
     * orders after it at equal (time, priority).
     */
    EventSlot
    reserve(Tick when, int priority = 0)
    {
        return EventSlot{when, priority, nextSeq_++};
    }

    /**
     * Schedule @p fn into a slot reserve() handed out; it fires
     * exactly where an event scheduled at reservation time would
     * have.  Each slot takes at most one event.
     */
    template <typename F>
    void
    schedule(const EventSlot &slot, F &&fn)
    {
        insert(slot.when, slot.priority, slot.seq, std::forward<F>(fn));
    }

    /**
     * Schedule @p fn at @p when with the place among same-time events
     * that it would take if an event firing at @p at scheduled it:
     * the key waits in the queue at (@p at, priority 0) and draws its
     * sequence number when the queue reaches that place, without
     * running a callback there.  Relays due by a run's horizon resolve
     * in nextTime().  Returns the relay's own slot.
     */
    template <typename F>
    EventSlot
    scheduleRelay(Tick at, Tick when, F &&fn)
    {
        const EventSlot relay{at, 0, nextSeq_++};
        const std::uint32_t slot = store(std::forward<F>(fn));
        if (relayTo_.size() <= slot)
            relayTo_.resize(slotCount_);
        relayTo_[slot] = when;
        place(Key{at, relay.seq, 0, slot | kRelayBit});
        return relay;
    }

    /**
     * True once an event in @p slot would have fired: the slot was
     * reserved before the executing event was popped and does not
     * order after it (the executing event's own slot has passed).
     * Between runs the frontier is the idle horizon set by
     * setHorizon().  A slot reserved during the executing event never
     * passes before that event returns, even at the same time and a
     * lower priority: it would have been the next event to fire.
     */
    bool
    passed(const EventSlot &slot) const
    {
        return slot.seq < frontierSeq_ && !firesAfter(slot, frontier_);
    }

    /**
     * Mark every slot reserved so far at a time <= @p t as passed:
     * the run loop calls this when nothing pending fires at or before
     * @p t.  The frontier never moves back.
     */
    void setHorizon(Tick t);

    /** True if no events are pending. */
    bool empty() const { return size_ == 0; }

    /** Number of pending events. */
    std::size_t size() const { return size_; }

    /**
     * Time of the earliest pending key; kTickNever if empty.  Relays
     * due at or before @p until resolve first, so the answer is an
     * event's time unless it lies past @p until.  Call it between
     * events only: a relay draws its sequence number here.
     */
    Tick
    nextTime(Tick until = kTickNever)
    {
        for (;;) {
            if (size_ == 0)
                return kTickNever;
            const Bucket &b = ring_[curIdx_];
            // sorted implies current and non-empty; peek lazily
            // advances the ring and sorts the current bucket.
            const Key &k = b.sorted ? b.v[b.head] : *peek();
            if (!(k.slot & kRelayBit) || k.when > until)
                return k.when;
            resolveRelay();
        }
    }

    /**
     * Pop and execute the earliest event.
     * @return the time the event fired.
     * Must not be called on an empty queue, nor with a relay at the
     * head (nextTime() resolves it first).
     */
    Tick
    executeNext()
    {
        if (size_ == 0)
            panicEmptyExecute();
        const Key head = popHead();
        if (head.slot & kRelayBit)
            panicRelayExecute();
        --size_;
        ++executed_;
        frontier_ = EventSlot{head.when, head.priority, head.seq};
        frontierSeq_ = nextSeq_;
        // The queue is fully updated before the callback runs in its
        // slot: event handlers re-enter schedule(), which may add slot
        // chunks (slots never move) but cannot take this slot, freed
        // only once the callback returns or throws.
        struct Release {
            EventQueue &q;
            std::uint32_t slot;
            ~Release()
            {
                q.slotAt(slot).reset();
                q.freeSlots_.push_back(slot);
            }
        } release{*this, head.slot};
        slotAt(head.slot)();
        return head.when;
    }

    /** Total events executed so far (for engine micro-benchmarks). */
    std::uint64_t executedCount() const { return executed_; }

    /** Drop every pending event, destroying each callback once (not
     *  from within an event: it frees the running callback's slot). */
    void clear();

  private:
    /**
     * What buckets and the far heap hold: the event's place in the
     * order and the index of its callback in slots_.  Trivially
     * copyable, so sorting and heap sifts move 24 bytes per entry.
     */
    struct Key {
        Tick when;
        std::uint64_t seq;
        std::int32_t priority;
        std::uint32_t slot;
    };
    static_assert(sizeof(Key) == 24 && std::is_trivially_copyable_v<Key>);

    /**
     * The event order, and the only place it is spelled out: true when
     * @p a fires after @p b.
     */
    template <typename A, typename B>
    static bool
    firesAfter(const A &a, const B &b)
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
        operator()(const Key &a, const Key &b) const
        {
            return firesAfter(a, b);
        }
    };
    /** Ascending fire order, for sorting buckets. */
    struct Earlier {
        bool
        operator()(const Key &a, const Key &b) const
        {
            return firesAfter(b, a);
        }
    };

    /**
     * A ring bucket.  Future buckets accumulate keys unsorted; when a
     * bucket becomes current it is sorted once into ascending fire
     * order and drained through the head cursor (pop is O(1), no key
     * ever moves).  Keys scheduled into the current bucket almost
     * always carry the largest (when, priority, seq) in it -- fresh
     * events at the current tick get monotonically increasing seq --
     * so they append in O(1) too; the rare out-of-order insert shifts
     * the later keys up one place.  A bucket's bit in occupied_ is set
     * exactly while v is non-empty.
     */
    struct Bucket {
        std::vector<Key> v;
        std::size_t head = 0; ///< next key to pop (earlier are husks)
        bool sorted = false;  ///< v[head..) is in ascending fire order
    };

    /**
     * Both schedule()s.  Inline, taking the event by reference, so the
     * common case -- a future time inside the ring horizon appending
     * to its bucket -- compiles to a handful of instructions at the
     * call site; clamped and far-future inserts take the out-of-line
     * path.
     */
    template <typename F>
    void
    insert(Tick when, int priority, std::uint64_t seq, F &&fn)
    {
        place(Key{when, seq, priority, store(std::forward<F>(fn))});
    }

    /** Build @p fn in a free slot (counting one pending key). */
    template <typename F>
    std::uint32_t
    store(F &&fn)
    {
        if constexpr (std::is_same_v<std::decay_t<F>, InlineEvent>) {
            if (!fn)
                panicNullEvent();
        }
        ++size_;
        std::uint32_t slot;
        if (freeSlots_.empty()) {
            slot = newSlot();
        } else {
            slot = freeSlots_.back();
            freeSlots_.pop_back();
        }
        slotAt(slot).emplace(std::forward<F>(fn));
        return slot;
    }

    /** Callback slot @p s; its address never changes. */
    InlineEvent &
    slotAt(std::uint32_t s)
    {
        return chunks_[s / kChunkSlots][s % kChunkSlots];
    }

    /** File @p k in its bucket, or the far heap. */
    void
    place(const Key &k)
    {
        if (k.when > curBucketStart_ &&
            k.when - curBucketStart_ < ringSpan()) {
            append(static_cast<std::size_t>(k.when >> shift_) & ringMask_,
                   k);
            return;
        }
        pushSlow(k);
    }

    /** Remove and return the earliest key (the queue is non-empty). */
    Key
    popHead()
    {
        Bucket *b = &ring_[curIdx_];
        if (!b->sorted) {
            peek();  // advance + sort; may move the ring
            b = &ring_[curIdx_];
        }
        const Key head = b->v[b->head];
        if (++b->head == b->v.size()) {
            b->v.clear();
            b->head = 0;
            b->sorted = false;
            occupied_[curIdx_ >> 6] &= ~(std::uint64_t(1) << (curIdx_ & 63));
        }
        --ringCount_;
        return head;
    }

    /** Turn the relay at the head into its event's key. */
    void
    resolveRelay()
    {
        const Key r = popHead();
        const std::uint32_t slot = r.slot & ~kRelayBit;
        place(Key{relayTo_[slot], nextSeq_++, 0, slot});
    }

    /** Add @p k to bucket @p idx, keeping a sorted bucket in order. */
    void
    append(std::size_t idx, const Key &k)
    {
        ++ringCount_;
        occupied_[idx >> 6] |= std::uint64_t(1) << (idx & 63);
        Bucket &b = ring_[idx];
        b.v.push_back(k);
        // Only the current bucket is ever sorted, and it is non-empty
        // (it resets to unsorted when drained), so v[size - 2] is a
        // live key.
        if (b.sorted && !firesAfter(k, b.v[b.v.size() - 2]))
            settleBack(b);
    }

    /** Rare out-of-order insert: move v.back() into fire order. */
    static void settleBack(Bucket &b);
    /** Index of a fresh empty slot, adding a chunk when all are
     *  taken. */
    std::uint32_t newSlot();
    /** Clamped-to-now and beyond-horizon inserts. */
    void pushSlow(const Key &k);
    /** Earliest pending key; advances the ring to its bucket. */
    const Key *peek();
    /** First occupied bucket at or after @p idx in ring order. */
    std::size_t nextOccupied(std::size_t idx) const;
    /** Move far-future keys now below the ring horizon into it. */
    void pullFar();
    /** Re-anchor an empty ring at the earliest far-future key. */
    void jumpToFar();

    Tick ringSpan() const { return Tick(ring_.size()) << shift_; }

    /** Key::slot bit marking a relay (see scheduleRelay). */
    static constexpr std::uint32_t kRelayBit = 0x80000000u;

    [[noreturn]] static void panicNullEvent();
    [[noreturn]] static void panicRelayExecute();
    [[noreturn]] static void panicEmptyExecute();

    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    /** Slot of the executing (or last executed) event, or the idle
     *  horizon; with frontierSeq_ it decides passed(). */
    EventSlot frontier_;
    /** nextSeq_ when frontier_ was set: later reservations are ahead. */
    std::uint64_t frontierSeq_ = 0;
    std::size_t size_ = 0;

    std::vector<Bucket> ring_;
    /** One bit per ring bucket, set while the bucket is non-empty. */
    std::vector<std::uint64_t> occupied_;
    std::size_t ringMask_ = 0;
    unsigned shift_ = 0;        ///< log2(bucket width in ticks)
    std::size_t curIdx_ = 0;
    Tick curBucketStart_ = 0;   ///< inclusive start of the current bucket
    std::size_t ringCount_ = 0; ///< pending keys resident in the ring
    std::vector<Key> far_;      ///< min-heap of keys beyond the ring

    /** Callbacks of pending events, indexed by Key::slot, in chunks
     *  of kChunkSlots that never move (an event runs in its slot); a
     *  free slot holds an empty InlineEvent. */
    static constexpr std::uint32_t kChunkSlots = 1024;
    std::vector<std::unique_ptr<InlineEvent[]>> chunks_;
    /** Slots handed out so far (all chunks' slots below it). */
    std::uint32_t slotCount_ = 0;
    std::vector<std::uint32_t> freeSlots_;
    /** Event time of each relay's slot (see scheduleRelay). */
    std::vector<Tick> relayTo_;
};

}  // namespace hmcsim

#endif  // HMCSIM_SIM_EVENT_QUEUE_H_
