#include "sim/event_queue.h"

#include <algorithm>
#include <iterator>
#include <limits>
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
        occupied_.assign((ring_.size() + 63) / 64, 0);
        ringMask_ = static_cast<std::size_t>(numBuckets) - 1;
    }
    curIdx_ = 0;
    curBucketStart_ = 0;
}

void
EventQueue::setHorizon(Tick t)
{
    if (t < frontier_.when)
        return;
    frontier_ = EventSlot{t, std::numeric_limits<int>::max(),
                          std::numeric_limits<std::uint64_t>::max()};
    frontierSeq_ = nextSeq_;
}

void
EventQueue::panicNullEvent()
{
    panic("EventQueue::schedule: null event function");
}

void
EventQueue::panicRelayExecute()
{
    panic("EventQueue::executeNext on an unresolved relay "
          "(call nextTime first)");
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
    std::fill(occupied_.begin(), occupied_.end(), 0);
    far_.clear();
    chunks_.clear();
    slotCount_ = 0;
    freeSlots_.clear();
    relayTo_.clear();
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
    // at the same tick).  Shift the later keys up one place, as
    // vector::insert would.
    const auto last = std::prev(b.v.end());
    const Key k = *last;
    const auto pos = std::upper_bound(
        b.v.begin() + static_cast<std::ptrdiff_t>(b.head), last, k,
        Earlier{});
    std::copy_backward(pos, last, b.v.end());
    *pos = k;
}

std::uint32_t
EventQueue::newSlot()
{
    if (slotCount_ == kRelayBit)
        panic("EventQueue: more than 2^31 pending events");
    if (slotCount_ == chunks_.size() * kChunkSlots)
        chunks_.push_back(std::make_unique<InlineEvent[]>(kChunkSlots));
    return slotCount_++;
}

void
EventQueue::pushSlow(const Key &k)
{
    if (k.when > curBucketStart_) {
        // Beyond the ring horizon: hold in the far-future min-heap.
        far_.push_back(k);
        std::push_heap(far_.begin(), far_.end(), Later{});
        return;
    }
    // Past or current-bucket-start times clamp into the current
    // bucket; ordering within the bucket is still exact, and every
    // later bucket holds strictly later times.
    append(curIdx_, k);
}

const EventQueue::Key *
EventQueue::peek()
{
    if (ringCount_ == 0)
        jumpToFar();
    const std::size_t idx = nextOccupied(curIdx_);
    if (idx != curIdx_) {
        // Jump over the empty buckets in one step.  Far keys all lie
        // beyond the old horizon, hence after the new current bucket,
        // so one pullFar() at the new horizon migrates exactly what
        // stepping bucket by bucket would have.
        curBucketStart_ += Tick((idx - curIdx_) & ringMask_) << shift_;
        curIdx_ = idx;
        pullFar();
    }
    Bucket &b = ring_[curIdx_];
    if (!b.sorted) {
        std::sort(b.v.begin(), b.v.end(), Earlier{});
        b.sorted = true;
    }
    return &b.v[b.head];
}

std::size_t
EventQueue::nextOccupied(std::size_t idx) const
{
    // Scan the bitmap from idx's word (bits below idx masked off),
    // wrapping once through the ring and back into idx's word for
    // the buckets before idx.  Bits past a partial last word are
    // never set.
    const std::size_t words = occupied_.size();
    std::size_t w = idx >> 6;
    std::uint64_t bits = occupied_[w] & (~std::uint64_t(0) << (idx & 63));
    for (std::size_t n = 0; n <= words; ++n) {
        if (bits != 0)
            return (w << 6) + static_cast<std::size_t>(__builtin_ctzll(bits));
        w = w + 1 == words ? 0 : w + 1;
        bits = occupied_[w];
    }
    panic("EventQueue: internal accounting error (no occupied bucket)");
}

void
EventQueue::pullFar()
{
    // Ring advance opened buckets at the horizon; migrate every
    // far-future key that now falls inside the ring.  Far keys are
    // always > curBucketStart_, so the subtraction cannot wrap.
    const Tick span = ringSpan();
    while (!far_.empty() && far_.front().when - curBucketStart_ < span) {
        std::pop_heap(far_.begin(), far_.end(), Later{});
        const Key k = far_.back();
        far_.pop_back();
        append(static_cast<std::size_t>(k.when >> shift_) & ringMask_, k);
    }
}

void
EventQueue::jumpToFar()
{
    // Ring is empty: re-anchor it at the earliest far-future key
    // instead of crossing the idle gap.
    if (far_.empty())
        panic("EventQueue: internal accounting error (empty calendar)");
    const Tick t = far_.front().when;
    curBucketStart_ = (t >> shift_) << shift_;
    curIdx_ = static_cast<std::size_t>(t >> shift_) & ringMask_;
    pullFar();
}

}  // namespace hmcsim
