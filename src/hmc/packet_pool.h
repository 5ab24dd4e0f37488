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
 * The pool changes only where bytes live, never any field value, so
 * it cannot affect simulation results.
 *
 * Under AddressSanitizer a block resting on the freelist is poisoned
 * (all but its link word), so a use of a packet after its last
 * shared_ptr died is reported just as it would be for a plain heap
 * allocation.
 */

#ifndef HMCSIM_HMC_PACKET_POOL_H_
#define HMCSIM_HMC_PACKET_POOL_H_

#include <cstddef>

namespace hmcsim {

/** Blocks currently resting on the freelist (tests/diagnostics). */
std::size_t packetPoolFreeBlocks();

/** Pool blocks currently alive in shared_ptrs (tests/diagnostics). */
std::size_t packetPoolLiveBlocks();

/** Grab a recycled block of @p size bytes (or carve a fresh one). */
void *packetPoolAcquire(std::size_t size, std::size_t align);

/** Return a block obtained from packetPoolAcquire to the freelist. */
void packetPoolRelease(void *p, std::size_t size);

/**
 * Stateless allocator that routes single-object allocations (the
 * fused control block + packet of std::allocate_shared) through the
 * pool.
 */
template <typename T>
struct PacketPoolAllocator {
    using value_type = T;

    PacketPoolAllocator() = default;
    template <typename U>
    PacketPoolAllocator(const PacketPoolAllocator<U> &)
    {
    }

    T *
    allocate(std::size_t n)
    {
        if (n == 1)
            return static_cast<T *>(packetPoolAcquire(sizeof(T), alignof(T)));
        return static_cast<T *>(::operator new(n * sizeof(T)));
    }

    void
    deallocate(T *p, std::size_t n)
    {
        if (n == 1) {
            packetPoolRelease(p, sizeof(T));
            return;
        }
        ::operator delete(p);
    }

    template <typename U>
    bool
    operator==(const PacketPoolAllocator<U> &) const
    {
        return true;
    }
    template <typename U>
    bool
    operator!=(const PacketPoolAllocator<U> &) const
    {
        return false;
    }
};

}  // namespace hmcsim

#endif  // HMCSIM_HMC_PACKET_POOL_H_
