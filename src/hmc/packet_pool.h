/**
 * @file
 * Recycled HmcPacket allocation.
 *
 * Every transaction allocates at least two HmcPackets (request and
 * response) each living in a shared_ptr control block -- at current
 * simulation rates that is ~10^6 malloc/free pairs per wall second,
 * the single largest engine cost after event scheduling.  The pool
 * routes those allocations through std::allocate_shared with a
 * freelist-backed allocator, so packet + control block live in one
 * recycled block and steady-state packet churn never touches the
 * system allocator.
 *
 * The pool is process-global and not thread-safe (the simulator is
 * single-threaded).  Freed blocks are kept on an intrusive freelist
 * inside the block memory itself and reused LIFO for cache warmth.
 *
 * Whether a given packet came from the pool is captured in its
 * control block at allocation time, so toggling the pool while
 * packets are in flight is safe: every block is returned the same way
 * it was obtained.  sim.packet_pool=false restores plain operator new
 * for differential testing (bit-identical by construction -- the pool
 * changes only where bytes live, never any field value).
 */

#ifndef HMCSIM_HMC_PACKET_POOL_H_
#define HMCSIM_HMC_PACKET_POOL_H_

#include <cstddef>

namespace hmcsim {

/** Enable/disable recycling for *future* allocations. */
void setPacketPoolEnabled(bool enabled);
bool packetPoolEnabled();

/** Blocks currently resting on the freelist (tests/diagnostics). */
std::size_t packetPoolFreeBlocks();

/** Pool blocks currently alive in shared_ptrs (tests/diagnostics). */
std::size_t packetPoolLiveBlocks();

/** Grab a recycled block of @p size bytes (or carve a fresh one). */
void *packetPoolAcquire(std::size_t size, std::size_t align);

/** Return a block obtained from packetPoolAcquire to the freelist. */
void packetPoolRelease(void *p, std::size_t size);

/**
 * Stateless-per-type allocator whose pooling decision is frozen at
 * construction.  std::allocate_shared copies it into the control
 * block, which is what makes in-flight toggling safe.
 */
template <typename T>
struct PacketPoolAllocator {
    using value_type = T;

    bool pooled;

    PacketPoolAllocator() : pooled(packetPoolEnabled()) {}
    template <typename U>
    PacketPoolAllocator(const PacketPoolAllocator<U> &o) : pooled(o.pooled)
    {
    }

    T *
    allocate(std::size_t n)
    {
        if (n == 1 && pooled) {
            return static_cast<T *>(
                packetPoolAcquire(sizeof(T), alignof(T)));
        }
        return static_cast<T *>(::operator new(n * sizeof(T)));
    }

    void
    deallocate(T *p, std::size_t n)
    {
        if (n == 1 && pooled) {
            packetPoolRelease(p, sizeof(T));
            return;
        }
        ::operator delete(p);
    }

    template <typename U>
    bool
    operator==(const PacketPoolAllocator<U> &o) const
    {
        return pooled == o.pooled;
    }
    template <typename U>
    bool
    operator!=(const PacketPoolAllocator<U> &o) const
    {
        return !(*this == o);
    }
};

}  // namespace hmcsim

#endif  // HMCSIM_HMC_PACKET_POOL_H_
