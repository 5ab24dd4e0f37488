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

}  // namespace

EventQueue::EventQueue()
{
    configure(SimConfig{});
}

void
EventQueue::configure(std::uint64_t bucketWidth, std::uint64_t numBuckets)
{
    if (size_ != 0)
        panic("EventQueue::configure with events pending");
    if (!isPowerOfTwo(bucketWidth) || !isPowerOfTwo(numBuckets) ||
        numBuckets < 2)
        panic("EventQueue::configure: calendar geometry must be "
              "powers of two with >= 2 buckets");
    unsigned shift = 0;
    while ((Tick(1) << shift) < bucketWidth)
        ++shift;
    // With nothing pending every bucket is already empty, so an
    // unchanged geometry keeps its ring; only the anchor resets.
    if (shift != shift_ || numBuckets != ring_.size()) {
        shift_ = shift;
        ring_.clear();
        ring_.resize(static_cast<std::size_t>(numBuckets));
        ringMask_ = static_cast<std::size_t>(numBuckets) - 1;
    }
    curIdx_ = 0;
    curBucketStart_ = 0;
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

void
EventQueue::settleBack(Bucket &b)
{
    // Rare out-of-order insert (e.g. a default-priority event
    // scheduled at now while a stats-priority event is still pending
    // at the same tick).  Shift the later entries up one slot, as
    // vector::insert would.
    const auto last = std::prev(b.v.end());
    Entry e = std::move(*last);
    const auto pos = std::upper_bound(
        b.v.begin() + static_cast<std::ptrdiff_t>(b.head), last, e,
        Earlier{});
    std::move_backward(pos, last, b.v.end());
    *pos = std::move(e);
}

void
EventQueue::pushSlow(Tick when, int priority, std::uint64_t seq,
                     InlineEvent &&fn)
{
    if (when > curBucketStart_) {
        // Beyond the ring horizon: hold in the far-future min-heap.
        far_.emplace_back(when, priority, seq, std::move(fn));
        std::push_heap(far_.begin(), far_.end(), Later{});
        return;
    }
    // Past or current-bucket-start times clamp into the current
    // bucket; ordering within the bucket is still exact, and every
    // later bucket holds strictly later times.
    append(ring_[curIdx_], when, priority, seq, std::move(fn));
}

EventQueue::Entry *
EventQueue::peek()
{
    for (;;) {
        if (ringCount_ == 0)
            jumpToFar();
        Bucket &b = ring_[curIdx_];
        if (!b.v.empty()) {
            if (!b.sorted) {
                std::sort(b.v.begin(), b.v.end(), Earlier{});
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
        std::pop_heap(far_.begin(), far_.end(), Later{});
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
