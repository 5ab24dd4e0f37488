/**
 * @file
 * The activity-driven host clock (Fpga) ticks only the FPGA edges
 * where a port or the controller has work and replays the skipped
 * edges in closed form.  These tests pin it to the free-running clock
 * that ticked every edge: each slice's reads, writes and bit-exact
 * mean and p99 read latency were captured from the free-running
 * build.  The slices cover the stream path across request sizes and
 * SerDes latencies around one FPGA period (5333 ps), closed-loop GUPS
 * and read-modify-write, delay-gated bursts, open loop, adaptive
 * two-link chain entry, a dual-host ring, CRC retries and thermal
 * throttling.  Further tests check that a sleeping host resumes on
 * the next edge when a port is reactivated, and that the clock skips
 * events on the Fig. 7 stream.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "common/config.h"
#include "host/experiment.h"
#include "host/system.h"

namespace hmcsim {
namespace {

/** One pinned run: Config overrides plus the free-running results. */
struct Pin {
    const char *name;
    /** Space-separated key=value Config overrides. */
    const char *keys;
    std::uint32_t ports;
    std::uint64_t reads;
    std::uint64_t writes;
    double avgReadNs;
    double p99ReadNs;
};

#define STREAM_KEYS                                                      \
    "host.workload=trace host.workload.vaults=1 "                       \
    "host.workload.base_vault=0 host.workload.batch=55"

const Pin kPins[] = {
    {"stream16_serdes0",
     STREAM_KEYS " host.workload.request_bytes=16 hmc.serdes_latency_ps=0",
     1, 1863, 0, 766.58540096618242, 960},
    {"stream16_serdes1000",
     STREAM_KEYS " host.workload.request_bytes=16 hmc.serdes_latency_ps=1000",
     1, 1848, 0, 771.09753084415593, 960},
    {"stream16_serdes5333",
     STREAM_KEYS " host.workload.request_bytes=16 hmc.serdes_latency_ps=5333",
     1, 1830, 0, 776.73503715847005, 960},
    {"stream16_serdes12800",
     STREAM_KEYS " host.workload.request_bytes=16 hmc.serdes_latency_ps=12800",
     1, 1785, 0, 791.61155294117771, 980},
    {"stream16_serdes16000",
     STREAM_KEYS " host.workload.request_bytes=16 hmc.serdes_latency_ps=16000",
     1, 1760, 0, 798.41184090909007, 990},
    {"stream16_serdes21111",
     STREAM_KEYS " host.workload.request_bytes=16 hmc.serdes_latency_ps=21111",
     1, 1736, 0, 808.49388076036917, 1000},
    {"stream32_serdes0",
     STREAM_KEYS " host.workload.request_bytes=32 hmc.serdes_latency_ps=0",
     1, 1238, 0, 916.66733683360349, 1240},
    {"stream32_serdes1000",
     STREAM_KEYS " host.workload.request_bytes=32 hmc.serdes_latency_ps=1000",
     1, 1238, 0, 917.09380452342543, 1240},
    {"stream32_serdes5333",
     STREAM_KEYS " host.workload.request_bytes=32 hmc.serdes_latency_ps=5333",
     1, 1224, 0, 926.66367810457666, 1240},
    {"stream32_serdes12800",
     STREAM_KEYS " host.workload.request_bytes=32 hmc.serdes_latency_ps=12800",
     1, 1205, 0, 939.48417510373486, 1260},
    {"stream32_serdes16000",
     STREAM_KEYS " host.workload.request_bytes=32 hmc.serdes_latency_ps=16000",
     1, 1195, 0, 948.63985439330565, 1270},
    {"stream32_serdes21111",
     STREAM_KEYS " host.workload.request_bytes=32 hmc.serdes_latency_ps=21111",
     1, 1187, 0, 956.99650126368977, 1280},
    {"stream64_serdes0",
     STREAM_KEYS " host.workload.request_bytes=64 hmc.serdes_latency_ps=0",
     1, 741, 0, 1225.6523022941963, 1820},
    {"stream64_serdes1000",
     STREAM_KEYS " host.workload.request_bytes=64 hmc.serdes_latency_ps=1000",
     1, 739, 0, 1227.3599756427611, 1820},
    {"stream64_serdes5333",
     STREAM_KEYS " host.workload.request_bytes=64 hmc.serdes_latency_ps=5333",
     1, 736, 0, 1232.931453804347, 1830},
    {"stream64_serdes12800",
     STREAM_KEYS " host.workload.request_bytes=64 hmc.serdes_latency_ps=12800",
     1, 730, 0, 1244.1825671232871, 1840},
    {"stream64_serdes16000",
     STREAM_KEYS " host.workload.request_bytes=64 hmc.serdes_latency_ps=16000",
     1, 726, 0, 1251.6690936639097, 1850},
    {"stream64_serdes21111",
     STREAM_KEYS " host.workload.request_bytes=64 hmc.serdes_latency_ps=21111",
     1, 722, 0, 1260.235740997229, 1860},
    {"stream128_serdes0",
     STREAM_KEYS " host.workload.request_bytes=128 hmc.serdes_latency_ps=0",
     1, 410, 0, 1825.7315170731692, 3030},
    {"stream128_serdes1000",
     STREAM_KEYS " host.workload.request_bytes=128 hmc.serdes_latency_ps=1000",
     1, 409, 0, 1829.5889975550117, 3030},
    {"stream128_serdes5333",
     STREAM_KEYS " host.workload.request_bytes=128 hmc.serdes_latency_ps=5333",
     1, 409, 0, 1840.7244058679703, 3040},
    {"stream128_serdes12800",
     STREAM_KEYS " host.workload.request_bytes=128 "
     "hmc.serdes_latency_ps=12800",
     1, 405, 0, 1862.7622246913577, 3060},
    {"stream128_serdes16000",
     STREAM_KEYS " host.workload.request_bytes=128 "
     "hmc.serdes_latency_ps=16000",
     1, 404, 0, 1869.8612227722767, 3060},
    {"stream128_serdes21111",
     STREAM_KEYS " host.workload.request_bytes=128 "
     "hmc.serdes_latency_ps=21111",
     1, 403, 0, 1886.2587270471467, 3070},
    {"gups64_9ports",
     "host.workload=gups host.workload.request_bytes=64",
     9, 3750, 0, 2514.5356229333333, 2580},
    {"gups32_window8",
     "host.workload=gups host.workload.window=8",
     1, 1241, 0, 722.78792022562504, 750},
    {"gups32_rmw_window8",
     "host.workload=gups host.workload.kind=rmw host.workload.window=8",
     1, 631, 628, 722.25332012678211, 750},
    {"burst_on_off",
     "host.workload=burst host.workload.burst_len=16 "
     "host.workload.burst_gap_ns=500 host.workload.window=8",
     2, 944, 0, 724.48374470338956, 750},
    {"open_loop",
     "host.workload=gups host.workload.inject=open "
     "host.workload.rate_per_ns=0.02",
     2, 800, 0, 723.70560124999986, 750},
    {"adaptive_entry_2link",
     "hmc.num_cubes=2 hmc.chain_topology=ring "
     "hmc.chain_routing=adaptive host.workload=gups "
     "host.workload.window=4",
     2, 993, 0, 755.25313595166142, 820},
    {"dual_host_ring",
     "hmc.num_cubes=4 hmc.chain_topology=ring host.num_hosts=2 "
     STREAM_KEYS " host.workload.request_bytes=64",
     1, 1421, 0, 1284.5530372976782, 1870},
    {"crc_errors",
     STREAM_KEYS " host.workload.request_bytes=128 hmc.crc_error_prob=0.01",
     1, 404, 0, 1868.409168316831, 3050},
    {"power_throttle",
     STREAM_KEYS " host.workload.request_bytes=128 "
     "hmc.power_throttle_enabled=true "
     "hmc.power_layer_capacitance_j_per_k=1e-7 "
     "hmc.power_throttle_on_c=45.5 hmc.power_throttle_off_c=45.2",
     1, 404, 0, 1869.5576113861384, 3050},
};

#undef STREAM_KEYS

SystemConfig
configFor(const std::string &keys, std::uint32_t ports)
{
    Config cfg;
    std::istringstream in(keys);
    std::string kv;
    while (in >> kv) {
        const std::size_t eq = kv.find('=');
        cfg.set(kv.substr(0, eq), kv.substr(eq + 1));
    }
    cfg.setU64("host.workload_ports", ports);
    return SystemConfig::fromConfig(cfg);
}

/** 5 us warmup, then a 20 us window with latency histograms on. */
ExperimentResult
runSlice(System &sys)
{
    for (HostId h = 0; h < sys.numHosts(); ++h) {
        for (PortId p = 0; p < sys.fpga(h).numPorts(); ++p) {
            if (sys.portAt(h, p).active())
                sys.portAt(h, p).monitor().enableHistogram(0.0, 50000.0,
                                                           5000);
        }
    }
    sys.run(5 * kMicrosecond);
    return sys.measure(20 * kMicrosecond);
}

class HostClockPin : public ::testing::TestWithParam<Pin>
{
};

TEST_P(HostClockPin, MatchesFreeRunningClock)
{
    const Pin &pin = GetParam();
    System sys(configFor(pin.keys, pin.ports));
    const ExperimentResult r = runSlice(sys);
    EXPECT_EQ(r.totalReads, pin.reads);
    EXPECT_EQ(r.totalWrites, pin.writes);
    EXPECT_EQ(r.avgReadLatencyNs, pin.avgReadNs);
    EXPECT_EQ(r.p99ReadLatencyNs, pin.p99ReadNs);
}

INSTANTIATE_TEST_SUITE_P(
    Slices, HostClockPin, ::testing::ValuesIn(kPins),
    [](const ::testing::TestParamInfo<Pin> &info) {
        return std::string(info.param.name);
    });

TEST(HostClock, SkipsEventsOnTheFig7Stream)
{
    // The free-running clock executed 16548 events on this slice.
    ASSERT_STREQ(kPins[21].name, "stream128_serdes12800");
    System sys(configFor(kPins[21].keys, 1));
    runSlice(sys);
    EXPECT_LT(sys.kernel().eventsExecuted(), 16548u);
}

TEST(HostClock, ReactivatedPortIssuesOnTheNextEdge)
{
    System sys(configFor("host.workload=gups host.workload.window=8", 1));
    WorkloadPort &port = sys.port(0);
    sys.run(2 * kMicrosecond);
    port.setActive(false);
    ASSERT_TRUE(sys.runUntilIdle(10 * kMicrosecond));

    // Nothing left to do: the host sleeps instead of ticking 187.5
    // edges per microsecond.
    const std::uint64_t before = sys.kernel().eventsExecuted();
    sys.run(10 * kMicrosecond + 1234);
    EXPECT_LT(sys.kernel().eventsExecuted() - before, 100u);

    const ClockDomain &clock = sys.fpga().clock();
    for (const Tick offset : {Tick(777), Tick(0)}) {
        // Reactivate off an edge, then exactly on one (whose tick the
        // free-running clock has already run by then).
        const Tick edge = clock.nextEdgeAfter(sys.kernel().now());
        sys.run(edge + offset - sys.kernel().now());
        const Tick t = sys.kernel().now();
        const std::uint64_t issued = port.issuedRequests();
        port.setActive(true);
        sys.kernel().runUntil(
            [&] { return port.issuedRequests() > issued; },
            t + kMicrosecond);
        EXPECT_EQ(sys.kernel().now(), clock.nextEdgeAfter(t));
        port.setActive(false);
        ASSERT_TRUE(sys.runUntilIdle(10 * kMicrosecond));
    }
}

}  // namespace
}  // namespace hmcsim
