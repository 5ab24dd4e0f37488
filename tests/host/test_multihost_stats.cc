/**
 * @file
 * Stat-namespace regression for multi-host fabrics: every host's
 * monitors and controller counters must live under their own
 * host<H>.* namespace.  The pre-multi-host Monitor/Report plumbing
 * assumed a single controller -- two controllers reporting under one
 * "fpga" prefix would silently sum (the stat map would keep one key
 * and the second reportStats overwrite or accumulate into it); these
 * tests pin that each host's counters stay separate and that the
 * separate values add up to the whole-system totals.
 */

#include <gtest/gtest.h>

#include "common/log.h"
#include "host/experiment.h"
#include "host/system.h"

namespace hmcsim {
namespace {

SystemConfig
dualHostRing()
{
    SystemConfig cfg;
    cfg.hmc.chain.numCubes = 4;
    cfg.hmc.chain.topology = "ring";
    cfg.host.numHosts = 2;
    return cfg;
}

TEST(MultiHostStats, ControllersReportUnderDistinctKeys)
{
    System sys(dualHostRing());
    for (HostId h = 0; h < 2; ++h) {
        WorkloadSpec w;
        w.type = "gups";
        w.seed = 21 + h;
        sys.configureWorkloadAt(h, 0, w);
    }
    sys.run(5 * kMicrosecond);
    const auto stats = sys.stats();

    const auto key = [](HostId h, const char *stat) {
        return "system.host" + std::to_string(h) + ".controller." + stat;
    };
    ASSERT_EQ(stats.count(key(0, "requests_sent")), 1u);
    ASSERT_EQ(stats.count(key(1, "requests_sent")), 1u);
    EXPECT_GT(stats.at(key(0, "requests_sent")), 0.0);
    EXPECT_GT(stats.at(key(1, "requests_sent")), 0.0);
    // The legacy single-controller key must be gone entirely -- its
    // continued existence would mean one fabric kept the old name and
    // a collision is one rename away.
    for (const auto &[k, v] : stats)
        EXPECT_EQ(k.find("system.fpga."), std::string::npos) << k;

    // Never silently summed: each key carries exactly its own
    // controller's count, so the two keys add up to the real total
    // and each stays strictly below it.
    const double total = stats.at(key(0, "requests_sent")) +
        stats.at(key(1, "requests_sent"));
    EXPECT_DOUBLE_EQ(
        total,
        static_cast<double>(sys.fpga(0).controller().requestsSent() +
                            sys.fpga(1).controller().requestsSent()));
    EXPECT_LT(stats.at(key(0, "requests_sent")), total);
    EXPECT_LT(stats.at(key(1, "requests_sent")), total);
}

TEST(MultiHostStats, PortMonitorsKeepPerHostNamespaces)
{
    System sys(dualHostRing());
    for (HostId h = 0; h < 2; ++h) {
        WorkloadSpec w;
        w.type = "gups";
        w.seed = 5 + h;
        sys.configureWorkloadAt(h, 0, w);
    }
    sys.run(5 * kMicrosecond);
    const auto stats = sys.stats();
    ASSERT_EQ(stats.count("system.host0.port0.issued"), 1u);
    ASSERT_EQ(stats.count("system.host1.port0.issued"), 1u);
    EXPECT_DOUBLE_EQ(stats.at("system.host0.port0.issued"),
                     static_cast<double>(
                         sys.portAt(0, 0).issuedRequests()));
    EXPECT_DOUBLE_EQ(stats.at("system.host1.port0.issued"),
                     static_cast<double>(
                         sys.portAt(1, 0).issuedRequests()));
}

TEST(MultiHostStats, ResultCarriesPerHostBreakdown)
{
    SystemConfig cfg = dualHostRing();
    System sys(cfg);
    for (HostId h = 0; h < 2; ++h) {
        WorkloadSpec w;
        w.type = "gups";
        w.seed = 31 + h;
        sys.configureWorkloadAt(h, 0, w);
    }
    sys.run(3 * kMicrosecond);
    const ExperimentResult r = sys.measure(6 * kMicrosecond);
    ASSERT_EQ(r.hosts.size(), 2u);
    EXPECT_EQ(r.hosts[0].entryCube, 0u);
    EXPECT_EQ(r.hosts[1].entryCube, 2u);
    std::uint64_t reads = 0, bytes = 0;
    for (const HostStats &hs : r.hosts) {
        EXPECT_GT(hs.reads, 0u);
        reads += hs.reads;
        bytes += hs.wireBytes;
    }
    EXPECT_EQ(reads, r.totalReads);
    EXPECT_EQ(bytes, r.totalWireBytes);
    // Per-port rows carry their owning host.
    ASSERT_EQ(r.ports.size(), 2u);
    EXPECT_EQ(r.ports[0].host, 0u);
    EXPECT_EQ(r.ports[1].host, 1u);
    // Per-cube requests_sent sums both controllers' contributions.
    std::uint64_t sent = 0;
    for (const CubeStats &cs : r.cubes)
        sent += cs.requestsSent;
    EXPECT_EQ(sent, r.hosts[0].requestsSent + r.hosts[1].requestsSent);
}

/**
 * Stride reads confined to cube @p c (cube_high interleave: each cube
 * owns one contiguous address range).
 */
WorkloadSpec
strideInCube(const System &sys, CubeId c, std::uint64_t stride)
{
    WorkloadSpec w;
    w.type = "stride";
    w.strideBytes = stride;
    w.strideBase = c * sys.addressMap().capacity();
    w.strideSpanBytes = sys.addressMap().capacity();
    return w;
}

/**
 * Host 0 reads cube 0, host 1 reads its entry cube 2: the two hosts
 * share no link, switch or vault.  With @p replace, host 1's port 0
 * is drained and replaced mid-run.
 */
void
runTwoHosts(System &sys, bool replace)
{
    for (PortId p = 0; p < 2; ++p)
        sys.configureWorkloadAt(0, p, strideInCube(sys, 0, 64 + 64 * p));
    sys.configureWorkloadAt(1, 0, strideInCube(sys, 2, 64));
    sys.run(3 * kMicrosecond);
    if (replace) {
        sys.portAt(1, 0).setActive(false);
        sys.run(2 * kMicrosecond);
        ASSERT_TRUE(sys.portAt(1, 0).idle());
        sys.configureWorkloadAt(1, 0, strideInCube(sys, 2, 256));
    } else {
        sys.run(2 * kMicrosecond);
    }
    sys.run(3 * kMicrosecond);
}

TEST(MultiHostStats, ReplacingAPortOfHostOneLeavesHostZeroAlone)
{
    System base(dualHostRing());
    runTwoHosts(base, false);
    System sys(dualHostRing());
    runTwoHosts(sys, true);

    // Host 1's controller serves the replacement port: every request
    // it issued in its 3 us came back to it.
    const WorkloadPort &fresh = sys.portAt(1, 0);
    EXPECT_GT(fresh.monitor().reads(), 0u);
    EXPECT_EQ(fresh.monitor().reads() + fresh.inFlight(),
              fresh.issuedRequests());
    const HmcHostController &ctrl = sys.fpga(1).controller();
    EXPECT_EQ(ctrl.requestsSent() - ctrl.responsesDelivered(),
              fresh.inFlight());

    // Host 0's ports issue exactly as in the run without it.
    for (PortId p = 0; p < sys.fpga(0).numPorts(); ++p) {
        const WorkloadPort &got = sys.portAt(0, p);
        const WorkloadPort &want = base.portAt(0, p);
        EXPECT_EQ(got.issuedRequests(), want.issuedRequests()) << p;
        EXPECT_EQ(got.monitor().reads(), want.monitor().reads()) << p;
    }
    EXPECT_GT(sys.portAt(0, 1).issuedRequests(), 0u);
}

}  // namespace
}  // namespace hmcsim
