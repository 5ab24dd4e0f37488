#include "hmc/packet_pool.h"

#include <new>

#include <sanitizer/asan_interface.h>

#include "common/log.h"

namespace hmcsim {

namespace {

/** Freed blocks carry the freelist link inside their own memory. */
struct FreeNode {
    FreeNode *next;
};

/**
 * One freelist per distinct block size.  allocate_shared produces a
 * single control-block-plus-packet size per packet type, so in
 * practice one bin is live; the small table keeps the pool correct if
 * another pooled type ever appears.  Trivial types only: the bins are
 * never destroyed, so blocks still in flight at static destruction
 * cannot touch a dead freelist.
 */
struct Bin {
    std::size_t size;
    FreeNode *head;
    std::size_t freeBlocks;
    std::size_t liveBlocks;
};

constexpr int kMaxBins = 8;
Bin g_bins[kMaxBins];
int g_numBins = 0;

Bin &
binFor(std::size_t size)
{
    for (int i = 0; i < g_numBins; ++i) {
        if (g_bins[i].size == size)
            return g_bins[i];
    }
    if (g_numBins == kMaxBins)
        panic("packet pool: too many distinct block sizes");
    Bin &b = g_bins[g_numBins++];
    b.size = size;
    b.head = nullptr;
    b.freeBlocks = 0;
    b.liveBlocks = 0;
    return b;
}

}  // namespace

std::size_t
packetPoolFreeBlocks()
{
    std::size_t n = 0;
    for (int i = 0; i < g_numBins; ++i)
        n += g_bins[i].freeBlocks;
    return n;
}

std::size_t
packetPoolLiveBlocks()
{
    std::size_t n = 0;
    for (int i = 0; i < g_numBins; ++i)
        n += g_bins[i].liveBlocks;
    return n;
}

void *
packetPoolAcquire(std::size_t size, std::size_t align)
{
    if (align > alignof(std::max_align_t) || size < sizeof(FreeNode))
        panic("packet pool: unsupported block geometry");
    Bin &b = binFor(size);
    ++b.liveBlocks;
    if (b.head != nullptr) {
        FreeNode *n = b.head;
        ASAN_UNPOISON_MEMORY_REGION(n, size);
        b.head = n->next;
        --b.freeBlocks;
        n->~FreeNode();
        return n;
    }
    return ::operator new(size);
}

void
packetPoolRelease(void *p, std::size_t size)
{
    Bin &b = binFor(size);
    FreeNode *n = new (p) FreeNode{b.head};
    b.head = n;
    ++b.freeBlocks;
    --b.liveBlocks;
    // Poison all but the link word: LeakSanitizer ignores pointers in
    // poisoned memory, and the freelist must stay reachable.  The
    // packet itself sits behind the shared_ptr control block, well
    // past the link, so every packet field is poisoned.
    ASAN_POISON_MEMORY_REGION(n + 1, size - sizeof(FreeNode));
}

}  // namespace hmcsim
