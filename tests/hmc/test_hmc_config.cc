#include <gtest/gtest.h>

#include <string>

#include "common/log.h"
#include "hmc/hmc_config.h"
#include "hmc/packet.h"

namespace hmcsim {
namespace {

TEST(HmcConfig, DefaultsMatchPaperHardware)
{
    const HmcConfig c;
    EXPECT_EQ(c.numVaults, 16u);
    EXPECT_EQ(c.numQuadrants, 4u);
    EXPECT_EQ(c.numBanksPerVault, 16u);
    EXPECT_EQ(c.capacityBytes, 4ull << 30);
    EXPECT_EQ(c.numLinks, 2u);
    EXPECT_EQ(c.lanesPerLink, 8u);   // half width
    EXPECT_DOUBLE_EQ(c.linkGbps, 15.0);
    EXPECT_NO_THROW(c.validate());
}

TEST(HmcConfig, Equation1PeakBandwidth)
{
    const HmcConfig c;
    // BW = 2 links x 8 lanes x 15 Gb/s x 2 duplex = 60 GB/s.
    EXPECT_DOUBLE_EQ(c.peakBandwidthGBs(), 60.0);
    EXPECT_DOUBLE_EQ(c.linkBandwidthGBsPerDirection(), 30.0);
}

TEST(HmcConfig, DerivedGeometry)
{
    const HmcConfig c;
    EXPECT_EQ(c.vaultsPerQuadrant(), 4u);
    EXPECT_EQ(c.vaultBytes(), 256ull << 20);  // 256 MB per vault
    EXPECT_EQ(c.bankBytes(), 16ull << 20);    // 16 MB per bank
}

TEST(HmcConfig, FromConfigOverrides)
{
    Config cfg;
    cfg.parseString("[hmc]\n"
                    "num_vaults = 8\n"
                    "num_quadrants = 2\n"
                    "capacity_bytes = 2147483648\n"
                    "link_gbps = 10\n"
                    "topology = quadrant_ring\n"
                    "scheduler = frfcfs\n"
                    "page_policy = open\n");
    const HmcConfig c = HmcConfig::fromConfig(cfg);
    EXPECT_EQ(c.numVaults, 8u);
    EXPECT_DOUBLE_EQ(c.linkGbps, 10.0);
    EXPECT_EQ(c.topology, "quadrant_ring");
    EXPECT_EQ(schedulerFromString(c.scheduler), SchedulerKind::FrFcfs);
    EXPECT_EQ(pagePolicyFromString(c.pagePolicy), PagePolicy::Open);
}

TEST(HmcConfig, ThirtyTwoBitKeyDoesNotWrap)
{
    // 2^32 + 16 once narrowed silently to a 16-vault cube.
    Config cfg;
    cfg.set("hmc.num_vaults", "4294967312");
    EXPECT_THROW(HmcConfig::fromConfig(cfg), FatalError);
}

TEST(HmcConfig, RoundTripThroughConfig)
{
    HmcConfig a;
    a.numVaults = 8;
    a.numQuadrants = 2;
    a.linkGbps = 12.5;
    a.scheduler = "frfcfs";
    Config cfg;
    a.toConfig(cfg);
    const HmcConfig b = HmcConfig::fromConfig(cfg);
    EXPECT_EQ(b.numVaults, a.numVaults);
    EXPECT_DOUBLE_EQ(b.linkGbps, a.linkGbps);
    EXPECT_EQ(b.scheduler, a.scheduler);
}

TEST(HmcConfig, ValidationRejectsBadGeometry)
{
    HmcConfig c;
    c.numVaults = 12;  // not a power of two
    EXPECT_THROW(c.validate(), FatalError);

    c = HmcConfig{};
    c.numQuadrants = 3;
    EXPECT_THROW(c.validate(), FatalError);

    c = HmcConfig{};
    c.blockBytes = 100;
    EXPECT_THROW(c.validate(), FatalError);

    c = HmcConfig{};
    c.rowBytes = 64;  // smaller than block
    EXPECT_THROW(c.validate(), FatalError);

    c = HmcConfig{};
    c.numLinks = 0;
    EXPECT_THROW(c.validate(), FatalError);

    c = HmcConfig{};
    c.crcErrorProb = 1.5;
    EXPECT_THROW(c.validate(), FatalError);

    c = HmcConfig{};
    c.mapScheme = "diagonal";
    EXPECT_THROW(c.validate(), FatalError);

    c = HmcConfig{};
    c.scheduler = "magic";
    EXPECT_THROW(c.validate(), FatalError);

    c = HmcConfig{};
    c.linkTokens = 8;  // cannot hold a max packet
    EXPECT_THROW(c.validate(), FatalError);
}

TEST(HmcConfig, EnumStringRoundTrip)
{
    EXPECT_EQ(toString(SchedulerKind::Fifo), "fifo");
    EXPECT_EQ(toString(SchedulerKind::FrFcfs), "frfcfs");
    EXPECT_EQ(toString(PagePolicy::Closed), "closed");
    EXPECT_EQ(toString(PagePolicy::Open), "open");
    EXPECT_THROW(schedulerFromString("nope"), FatalError);
    EXPECT_THROW(pagePolicyFromString("nope"), FatalError);
}

TEST(HmcConfig, DramTimingHonoursPresetAndTrefi)
{
    HmcConfig c;
    c.trefi = 7800000;
    const DramTimingParams p = c.dramTiming();
    EXPECT_EQ(p.tREFI, 7800000u);
    c.dramPreset = "unknown";
    EXPECT_THROW(c.dramTiming(), FatalError);
}

TEST(HmcConfig, FlitBuffersMustHoldTheLargestPacket)
{
    // A buffer below one 128 B write (9 flits) used to wedge the fabric
    // silently (0.00 GB/s, exit 0); zero also reached the credit
    // pools' zero-capacity panic.
    ASSERT_EQ(kMaxPacketFlits, 9u);
    for (const char *key :
         {"hmc.noc_input_buffer_flits", "hmc.noc_output_queue_flits",
          "hmc.noc_eject_queue_flits", "hmc.vc_input_queue_flits",
          "hmc.vc_response_queue_flits"}) {
        for (const char *value : {"0", "4", "8"}) {
            Config cfg;
            cfg.set(key, value);
            try {
                HmcConfig::fromConfig(cfg);
                ADD_FAILURE() << key << " = " << value << " accepted";
            } catch (const FatalError &e) {
                EXPECT_NE(std::string(e.what()).find(key),
                          std::string::npos)
                    << e.what();
            }
        }
        Config cfg;
        cfg.set(key, "9");
        EXPECT_NO_THROW(HmcConfig::fromConfig(cfg)) << key;
    }
}

TEST(HmcConfig, HalfGigCubeIsValid)
{
    HmcConfig c;
    c.capacityBytes = 512ull << 20;
    EXPECT_NO_THROW(c.validate());
    EXPECT_EQ(c.vaultBytes(), 32ull << 20);
}

}  // namespace
}  // namespace hmcsim
