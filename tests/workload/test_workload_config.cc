/**
 * @file
 * Tests for the config-driven workload surface: host.workload* key
 * parsing, per-port overrides, System auto-configuration, duration
 * parsing and round-tripping.
 */

#include <gtest/gtest.h>

#include "common/log.h"
#include "host/system.h"
#include "host/workload/workload_build.h"

namespace hmcsim {
namespace {

TEST(WorkloadSpec, DefaultsAreGupsClosedLoop)
{
    const WorkloadSpec s;
    EXPECT_EQ(s.type, "gups");
    EXPECT_EQ(s.inject, "closed");
    EXPECT_NO_THROW(s.validate());
}

TEST(WorkloadSpec, FromConfigReadsKnobs)
{
    Config cfg;
    cfg.parseString("[host]\n"
                    "workload = zipf\n"
                    "workload.request_bytes = 64\n"
                    "workload.zipf_theta = 0.8\n"
                    "workload.zipf_domain = block\n"
                    "workload.inject = open\n"
                    "workload.rate_per_ns = 0.25\n");
    const WorkloadSpec s =
        WorkloadSpec::fromConfig(cfg, "host.", WorkloadSpec{});
    EXPECT_EQ(s.type, "zipf");
    EXPECT_EQ(s.requestBytes, 64u);
    EXPECT_DOUBLE_EQ(s.zipfTheta, 0.8);
    EXPECT_EQ(s.zipfDomain, "block");
    EXPECT_EQ(s.inject, "open");
    EXPECT_DOUBLE_EQ(s.ratePerNs, 0.25);
}

TEST(WorkloadSpec, RoundTripsThroughConfig)
{
    WorkloadSpec a;
    a.type = "burst";
    a.burstInner = "stride";
    a.strideBytes = 4096;
    a.burstLen = 17;
    a.kind = ReqKind::ReadModifyWrite;
    a.writeFraction = 0.25;
    a.seed = 99;
    Config cfg;
    a.toConfig(cfg, "host.");
    const WorkloadSpec b =
        WorkloadSpec::fromConfig(cfg, "host.", WorkloadSpec{});
    EXPECT_EQ(b.type, "burst");
    EXPECT_EQ(b.burstInner, "stride");
    EXPECT_EQ(b.strideBytes, 4096u);
    EXPECT_EQ(b.burstLen, 17u);
    EXPECT_EQ(b.kind, ReqKind::ReadModifyWrite);
    EXPECT_DOUBLE_EQ(b.writeFraction, 0.25);
    EXPECT_EQ(b.seed, 99u);
}

TEST(WorkloadSpec, RejectsNonsense)
{
    WorkloadSpec s;
    s.type = "quantum";
    EXPECT_THROW(s.validate(), FatalError);
    s = WorkloadSpec{};
    s.inject = "open";
    s.ratePerNs = 0.0;
    EXPECT_THROW(s.validate(), FatalError);
    s = WorkloadSpec{};
    s.type = "zipf";
    s.zipfTheta = 1.5;
    EXPECT_THROW(s.validate(), FatalError);
    s = WorkloadSpec{};
    s.type = "burst";
    s.burstInner = "mix";
    EXPECT_THROW(s.validate(), FatalError);
}

TEST(WorkloadSpec, ParseDurations)
{
    EXPECT_EQ(parseDurationTicks("250ns"), 250 * kNanosecond);
    EXPECT_EQ(parseDurationTicks("20us"), 20 * kMicrosecond);
    EXPECT_EQ(parseDurationTicks("1.5ms"),
              static_cast<Tick>(1.5 * kMillisecond));
    EXPECT_EQ(parseDurationTicks("42"), 42 * kNanosecond);  // bare = ns
    EXPECT_THROW(parseDurationTicks("fast"), FatalError);
    EXPECT_THROW(parseDurationTicks("10 lightyears"), FatalError);
}

TEST(HostConfig, WorkloadPortsExpandFromDefaults)
{
    Config cfg;
    cfg.parseString("[host]\n"
                    "workload_ports = 3\n"
                    "workload = stride\n"
                    "workload.stride_bytes = 256\n");
    const HostConfig c = HostConfig::fromConfig(cfg);
    ASSERT_EQ(c.portWorkloads.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(c.portWorkloads[i].port, i);
        EXPECT_EQ(c.portWorkloads[i].spec.type, "stride");
        EXPECT_EQ(c.portWorkloads[i].spec.strideBytes, 256u);
    }
}

TEST(HostConfig, PerPortOverrideWinsAndActivates)
{
    Config cfg;
    cfg.parseString("[host]\n"
                    "workload_ports = 2\n"
                    "workload = gups\n"
                    "port1.workload = zipf\n"
                    "port1.workload.zipf_theta = 0.5\n"
                    "port5.workload = stride\n");
    const HostConfig c = HostConfig::fromConfig(cfg);
    ASSERT_EQ(c.portWorkloads.size(), 3u);  // ports 0, 1 and 5
    EXPECT_EQ(c.portWorkloads[0].spec.type, "gups");
    EXPECT_EQ(c.portWorkloads[1].spec.type, "zipf");
    EXPECT_DOUBLE_EQ(c.portWorkloads[1].spec.zipfTheta, 0.5);
    EXPECT_EQ(c.portWorkloads[2].port, 5u);
    EXPECT_EQ(c.portWorkloads[2].spec.type, "stride");
}

TEST(HostConfig, WorkloadValidation)
{
    HostConfig c;
    c.workloadPorts = c.numPorts + 1;
    EXPECT_THROW(c.validate(), FatalError);
    c = HostConfig{};
    c.portWorkloads.push_back({c.numPorts, WorkloadSpec{}});
    EXPECT_THROW(c.validate(), FatalError);

    // Ports are 0-indexed: port9 does not exist on the 9-port host,
    // whether the key names the workload or one of its knobs.
    Config cfg;
    cfg.set("host.port9.workload", "stride");
    EXPECT_THROW(HostConfig::fromConfig(cfg), FatalError);
    cfg = Config{};
    cfg.set("host.port9.workload.seed", "3");
    EXPECT_THROW(HostConfig::fromConfig(cfg), FatalError);
    cfg = Config{};
    cfg.set("host.port8.workload", "stride");
    EXPECT_NO_THROW(HostConfig::fromConfig(cfg));
}

TEST(System, ConfiguresWorkloadsFromConfig)
{
    Config cfg;
    SystemConfig{}.toConfig(cfg);
    cfg.parseString("[host]\n"
                    "workload_ports = 2\n"
                    "workload = gups\n"
                    "port1.workload = stride\n"
                    "port1.workload.stride_bytes = 128\n");
    System sys(SystemConfig::fromConfig(cfg));
    sys.run(10 * kMicrosecond);
    EXPECT_GT(sys.port(0).monitor().reads(), 100u);
    EXPECT_GT(sys.port(1).monitor().reads(), 100u);
    EXPECT_EQ(sys.port(2).issuedRequests(), 0u);  // not configured
}

TEST(System, DefaultConfigKeepsPortsInactive)
{
    // The seed guarantee: a default SystemConfig must not inject any
    // traffic (workload_ports defaults to 0).
    System sys{SystemConfig{}};
    sys.run(5 * kMicrosecond);
    for (PortId p = 0; p < sys.fpga().numPorts(); ++p)
        EXPECT_EQ(sys.port(p).issuedRequests(), 0u);
}

TEST(Build, EveryTypeBuildsASource)
{
    const HmcConfig hmc;
    const AddressMap map(hmc);
    for (const char *type :
         {"gups", "stride", "zipf", "burst", "trace", "mix"}) {
        WorkloadSpec s;
        s.type = type;
        TrafficSourcePtr src = buildTrafficSource(s, map, 123);
        ASSERT_TRUE(src);
        WorkloadRequest r;
        EXPECT_TRUE(src->next(0, r));
        EXPECT_GT(r.bytes, 0u);
    }
}

TEST(Build, MixPhasesParse)
{
    const HmcConfig hmc;
    const AddressMap map(hmc);
    WorkloadSpec s;
    s.type = "mix";
    s.mixPhases = "gups:5us, stride:500ns ,zipf:1us";
    TrafficSourcePtr src = buildTrafficSource(s, map, 5);
    WorkloadRequest r;
    EXPECT_TRUE(src->next(0, r));

    s.mixPhases = "gups";  // missing duration
    EXPECT_THROW(buildTrafficSource(s, map, 5), FatalError);
}

TEST(Build, ZipfDomainsBuildExpectedTargets)
{
    const HmcConfig hmc;
    const AddressMap map(hmc);
    WorkloadSpec s;
    s.type = "zipf";
    for (const char *domain : {"vault", "cube", "block"}) {
        s.zipfDomain = domain;
        TrafficSourcePtr src = buildTrafficSource(s, map, 9);
        WorkloadRequest r;
        EXPECT_TRUE(src->next(0, r));
        EXPECT_LT(r.addr, map.totalCapacity());
    }
}

}  // namespace
}  // namespace hmcsim
