#include "sim/event_queue.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/log.h"

namespace hmcsim {

namespace {

bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Inlinable comparator wrapper for the std heap/sort algorithms. */
struct LaterCmp {
    template <typename E>
    bool
    operator()(const E &a, const E &b) const
    {
        if (a.when != b.when)
            return a.when > b.when;
        if (a.priority != b.priority)
            return a.priority > b.priority;
        return a.seq > b.seq;
    }
};

/** Ascending fire order, for sorting buckets. */
struct EarlierCmp {
    template <typename E>
    bool
    operator()(const E &a, const E &b) const
    {
        return LaterCmp{}(b, a);
    }
};

}  // namespace

EventQueue::EventQueue() = default;

void
EventQueue::configure(EventQueueKind kind, std::uint64_t bucketWidth,
                      std::uint64_t numBuckets)
{
    if (size_ != 0)
        panic("EventQueue::configure with events pending");
    kind_ = kind;
    if (kind != EventQueueKind::Calendar)
        return;
    if (!isPowerOfTwo(bucketWidth) || !isPowerOfTwo(numBuckets) ||
        numBuckets < 2)
        panic("EventQueue::configure: calendar geometry must be "
              "powers of two with >= 2 buckets");
    shift_ = 0;
    while ((Tick(1) << shift_) < bucketWidth)
        ++shift_;
    ring_.clear();
    ring_.resize(static_cast<std::size_t>(numBuckets));
    ringMask_ = static_cast<std::size_t>(numBuckets) - 1;
    curIdx_ = 0;
    curBucketStart_ = 0;
    ringCount_ = 0;
    far_.clear();
}

void
EventQueue::panicNullEvent()
{
    panic("EventQueue::schedule: null event function");
}

void
EventQueue::panicEmptyExecute()
{
    panic("EventQueue::executeNext on empty queue");
}

void
EventQueue::clear()
{
    heap_.clear();
    for (Bucket &b : ring_) {
        b.v.clear();
        b.head = 0;
        b.sorted = false;
    }
    far_.clear();
    ringCount_ = 0;
    curIdx_ = 0;
    curBucketStart_ = 0;
    size_ = 0;
}

// ---------------------------------------------------------------------
// heap mode
// ---------------------------------------------------------------------

void
EventQueue::heapPush(Entry &&e)
{
    heap_.push_back(std::move(e));
    std::size_t i = heap_.size() - 1;
    Entry item = std::move(heap_[i]);
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!laterThan(heap_[parent], item))
            break;
        heap_[i] = std::move(heap_[parent]);
        i = parent;
    }
    heap_[i] = std::move(item);
}

EventQueue::Entry
EventQueue::heapPop()
{
    Entry top = std::move(heap_.front());
    Entry last = std::move(heap_.back());
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n != 0) {
        std::size_t i = 0;
        for (;;) {
            std::size_t child = 2 * i + 1;
            if (child >= n)
                break;
            if (child + 1 < n && laterThan(heap_[child], heap_[child + 1]))
                ++child;
            if (!laterThan(last, heap_[child]))
                break;
            heap_[i] = std::move(heap_[child]);
            i = child;
        }
        heap_[i] = std::move(last);
    }
    return top;
}

// ---------------------------------------------------------------------
// calendar mode
// ---------------------------------------------------------------------

void
EventQueue::calendarPushSlow(Tick when, int priority, std::uint64_t seq,
                             InlineEvent &&fn)
{
    if (when > curBucketStart_) {
        // Beyond the ring horizon: hold in the far-future min-heap.
        far_.emplace_back(when, priority, seq, std::move(fn));
        std::push_heap(far_.begin(), far_.end(), LaterCmp{});
        return;
    }
    // Past or current-bucket-start times clamp into the current
    // bucket; ordering within the bucket is still exact, and every
    // later bucket holds strictly later times.
    Bucket &b = ring_[curIdx_];
    ++ringCount_;
    if (b.sorted) {
        const Entry &last = b.v.back();
        const bool firesAfter =
            when != last.when
                ? when > last.when
                : priority != last.priority ? priority > last.priority
                                            : seq > last.seq;
        if (!firesAfter) {
            calendarInsertSorted(b, when, priority, seq, std::move(fn));
            return;
        }
    }
    b.v.emplace_back(when, priority, seq, std::move(fn));
}

void
EventQueue::calendarInsertSorted(Bucket &b, Tick when, int priority,
                                 std::uint64_t seq, InlineEvent &&fn)
{
    // Rare out-of-order insert (e.g. a default-priority event
    // scheduled at now while a stats-priority event is still pending
    // at the same tick): rotate into place.
    Entry e(when, priority, seq, std::move(fn));
    const auto pos =
        std::upper_bound(b.v.begin() + static_cast<std::ptrdiff_t>(b.head),
                         b.v.end(), e, EarlierCmp{});
    b.v.insert(pos, std::move(e));
}

EventQueue::Entry *
EventQueue::calendarPeek()
{
    for (;;) {
        if (ringCount_ == 0)
            jumpToFar();
        Bucket &b = ring_[curIdx_];
        if (!b.v.empty()) {
            if (!b.sorted) {
                std::sort(b.v.begin(), b.v.end(), EarlierCmp{});
                b.sorted = true;
            }
            return &b.v[b.head];
        }
        b.sorted = false;
        curIdx_ = (curIdx_ + 1) & ringMask_;
        curBucketStart_ += Tick(1) << shift_;
        pullFar();
    }
}

void
EventQueue::pullFar()
{
    // Ring advance opened a new bucket at the horizon; migrate every
    // far-future entry that now falls inside it.  Far entries are
    // always > curBucketStart_, so the subtraction cannot wrap.
    const Tick span = ringSpan();
    while (!far_.empty() && far_.front().when - curBucketStart_ < span) {
        std::pop_heap(far_.begin(), far_.end(), LaterCmp{});
        Entry e = std::move(far_.back());
        far_.pop_back();
        ring_[static_cast<std::size_t>(e.when >> shift_) & ringMask_]
            .v.push_back(std::move(e));
        ++ringCount_;
    }
}

void
EventQueue::jumpToFar()
{
    // Ring is empty: re-anchor it at the earliest far-future entry
    // instead of stepping bucket-by-bucket across the idle gap.
    if (far_.empty())
        panic("EventQueue: internal accounting error (empty calendar)");
    const Tick t = far_.front().when;
    curBucketStart_ = (t >> shift_) << shift_;
    curIdx_ = static_cast<std::size_t>(t >> shift_) & ringMask_;
    pullFar();
}

}  // namespace hmcsim
