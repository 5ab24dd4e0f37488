#include <gtest/gtest.h>

#include "common/log.h"
#include "host/host_config.h"

namespace hmcsim {
namespace {

TEST(HostConfig, DefaultsMatchAc510)
{
    const HostConfig c;
    EXPECT_DOUBLE_EQ(c.fpgaMhz, 187.5);
    EXPECT_EQ(c.numPorts, 9u);  // the firmware's nine ports
    EXPECT_NO_THROW(c.validate());
}

TEST(HostConfig, FromConfigOverrides)
{
    Config cfg;
    cfg.parseString("[host]\n"
                    "num_ports = 4\n"
                    "tags_per_port = 8\n"
                    "fixed_latency_ns = 0\n"
                    "stream_window = 10\n");
    const HostConfig c = HostConfig::fromConfig(cfg);
    EXPECT_EQ(c.numPorts, 4u);
    EXPECT_EQ(c.tagsPerPort, 8u);
    EXPECT_DOUBLE_EQ(c.fixedLatencyNs, 0.0);
    EXPECT_EQ(c.streamWindow, 10u);
}

TEST(HostConfig, RoundTrip)
{
    HostConfig a;
    a.numPorts = 5;
    a.deserializerFlitsPerCycle = 9;
    a.seed = 777;
    Config cfg;
    a.toConfig(cfg);
    const HostConfig b = HostConfig::fromConfig(cfg);
    EXPECT_EQ(b.numPorts, 5u);
    EXPECT_EQ(b.deserializerFlitsPerCycle, 9u);
    EXPECT_EQ(b.seed, 777u);
}

TEST(HostConfig, ValidationRejectsNonsense)
{
    HostConfig c;
    c.fpgaMhz = 0.0;
    EXPECT_THROW(c.validate(), FatalError);

    c = HostConfig{};
    c.numPorts = 0;
    EXPECT_THROW(c.validate(), FatalError);

    c = HostConfig{};
    c.tagsPerPort = 0;
    EXPECT_THROW(c.validate(), FatalError);

    c = HostConfig{};
    c.deserializerFlitBudgetCap = 8;  // below one max packet
    EXPECT_THROW(c.validate(), FatalError);

    c = HostConfig{};
    c.fixedLatencyNs = -1.0;
    EXPECT_THROW(c.validate(), FatalError);

    c = HostConfig{};
    c.streamWindow = 0;
    EXPECT_THROW(c.validate(), FatalError);
}

TEST(HostConfig, FromConfigValidates)
{
    Config cfg;
    cfg.set("host.num_ports", "0");
    EXPECT_THROW(HostConfig::fromConfig(cfg), FatalError);

    // A pin for a host past num_hosts fails however far past it is.
    cfg = Config{};
    cfg.set("host.num_hosts", "2");
    cfg.set("host.host12.entry_cube", "3");
    EXPECT_THROW(HostConfig::fromConfig(cfg), FatalError);
}

}  // namespace
}  // namespace hmcsim
