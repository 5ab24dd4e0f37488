/**
 * @file
 * Packet-pool tests: recycling really happens, the counters balance,
 * and under AddressSanitizer a block resting on the freelist is
 * poisoned.
 */

#include <gtest/gtest.h>

#include <vector>

#include "hmc/packet.h"
#include "hmc/packet_pool.h"

#if defined(__SANITIZE_ADDRESS__)
#define HMCSIM_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define HMCSIM_ASAN 1
#endif
#endif

#ifdef HMCSIM_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace hmcsim {
namespace {

TEST(PacketPool, RawAcquireReleaseRecyclesLifo)
{
    const std::size_t free0 = packetPoolFreeBlocks();
    const std::size_t live0 = packetPoolLiveBlocks();

    void *a = packetPoolAcquire(256, alignof(std::max_align_t));
    EXPECT_EQ(packetPoolLiveBlocks(), live0 + 1);
    packetPoolRelease(a, 256);
    EXPECT_EQ(packetPoolLiveBlocks(), live0);
    EXPECT_EQ(packetPoolFreeBlocks(), free0 + 1);

    // LIFO: the block just released comes straight back.
    void *b = packetPoolAcquire(256, alignof(std::max_align_t));
    EXPECT_EQ(b, a);
    EXPECT_EQ(packetPoolFreeBlocks(), free0);
    packetPoolRelease(b, 256);
}

TEST(PacketPool, PacketAllocationsRecycleMemory)
{

    // Warm the bin, then drop the packet: its block must rest on the
    // freelist and feed the next allocation of the same size class.
    HmcPacketPtr p = makeReadRequest(0x1000, 32, 0);
    const HmcPacket *addr = p.get();
    const std::size_t live = packetPoolLiveBlocks();
    p.reset();
    EXPECT_EQ(packetPoolLiveBlocks(), live - 1);

    HmcPacketPtr q = makeReadRequest(0x2000, 32, 1);
    EXPECT_EQ(q.get(), addr);
    EXPECT_EQ(q->addr, 0x2000u);
    EXPECT_EQ(q->port, 1);
}

TEST(PacketPool, ResponsesComeFromThePool)
{

    HmcPacketPtr req = makeReadRequest(0x4000, 64, 2);
    const std::size_t live = packetPoolLiveBlocks();
    HmcPacketPtr resp = req->makeResponsePtr();
    EXPECT_EQ(packetPoolLiveBlocks(), live + 1);
    EXPECT_EQ(resp->tag, req->tag);
    EXPECT_EQ(resp->port, req->port);
    resp.reset();
    EXPECT_EQ(packetPoolLiveBlocks(), live);
}

TEST(PacketPool, CountersBalanceUnderChurn)
{
    const std::size_t live0 = packetPoolLiveBlocks();

    std::vector<HmcPacketPtr> pkts;
    for (int round = 0; round < 4; ++round) {
        for (int i = 0; i < 64; ++i)
            pkts.push_back(makeReadRequest(
                static_cast<Addr>(i) * 64, 32, 0));
        EXPECT_EQ(packetPoolLiveBlocks(), live0 + pkts.size());
        pkts.clear();
        EXPECT_EQ(packetPoolLiveBlocks(), live0);
    }
}

TEST(PacketPool, ReleasedBlockIsPoisonedUnderAsan)
{
#ifdef HMCSIM_ASAN
    HmcPacketPtr p = makeReadRequest(0x100, 32, 0);
    const HmcPacket *addr = p.get();
    EXPECT_FALSE(__asan_address_is_poisoned(addr));
    p.reset();
    // The block now rests on the freelist: any touch of the dead
    // packet is a use-after-free ASan must report.
    EXPECT_TRUE(__asan_address_is_poisoned(addr));
    EXPECT_TRUE(__asan_address_is_poisoned(&addr->addr));

    // Reacquiring the block makes it addressable again.
    HmcPacketPtr q = makeReadRequest(0x200, 32, 0);
    ASSERT_EQ(q.get(), addr);
    EXPECT_FALSE(__asan_address_is_poisoned(addr));
    EXPECT_EQ(q->addr, 0x200u);
#else
    GTEST_SKIP() << "needs an AddressSanitizer build (HMCSIM_SANITIZE=ON)";
#endif
}

}  // namespace
}  // namespace hmcsim
