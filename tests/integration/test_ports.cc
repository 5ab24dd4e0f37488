/**
 * @file
 * Integration tests for the FPGA port models against a live system.
 */

#include <gtest/gtest.h>

#include "common/log.h"
#include "host/system.h"

namespace hmcsim {
namespace {

class PortsTest : public ::testing::Test
{
  protected:
    PortsTest() : sys_(SystemConfig{}) {}

    static WorkloadSpec
    gups(std::uint32_t bytes = 32)
    {
        WorkloadSpec w;
        w.requestBytes = bytes;
        w.seed = 9;
        return w;
    }

    /** A trace-replay port (the stream firmware), one pass by default. */
    static WorkloadSpec
    stream(bool loop = false)
    {
        WorkloadSpec w;
        w.type = "trace";
        w.traceLoop = loop;
        return w;
    }

    static Trace
    sequential(std::size_t n, std::uint32_t bytes = 32)
    {
        return makeStreamTrace(0, n, bytes, bytes);
    }

    System sys_;
};

TEST_F(PortsTest, InactivePortGeneratesNothing)
{
    sys_.run(10 * kMicrosecond);
    for (PortId p = 0; p < sys_.fpga().numPorts(); ++p)
        EXPECT_EQ(sys_.port(p).issuedRequests(), 0u);
}

TEST_F(PortsTest, GupsPortRespectsTagLimit)
{
    WorkloadPort &port = sys_.configureWorkload(0, gups());
    sys_.run(10 * kMicrosecond);
    EXPECT_LE(port.tags().peakInUse(),
              sys_.config().host.tagsPerPort);
    EXPECT_GT(port.tags().peakInUse(), 0u);
}

TEST_F(PortsTest, GupsDeactivationDrains)
{
    WorkloadPort &port = sys_.configureWorkload(0, gups());
    sys_.run(10 * kMicrosecond);
    port.setActive(false);
    sys_.run(20 * kMicrosecond);
    EXPECT_TRUE(port.idle());
    EXPECT_EQ(port.tags().inUse(), 0u);
    EXPECT_EQ(port.monitor().accesses(), port.issuedRequests());
}

TEST_F(PortsTest, StreamPortFinishesFiniteTrace)
{
    sys_.configureWorkload(0, stream(), sequential(64));
    EXPECT_TRUE(sys_.runUntilIdle(100 * kMicrosecond));
    EXPECT_EQ(sys_.port(0).monitor().reads(), 64u);
}

TEST_F(PortsTest, StreamPortHonoursWindow)
{
    WorkloadSpec w = stream(true);
    w.window = 4;
    WorkloadPort &port = sys_.configureWorkload(0, w, sequential(5000));
    sys_.run(5 * kMicrosecond);
    EXPECT_LE(port.inFlight(), 4u);
    EXPECT_GT(port.monitor().reads(), 10u);
}

TEST_F(PortsTest, StreamBatchesComplete)
{
    WorkloadSpec w = stream(true);
    w.batchSize = 10;
    WorkloadPort &port = sys_.configureWorkload(0, w, sequential(4096));
    sys_.run(30 * kMicrosecond);
    EXPECT_GT(port.batchesCompleted(), 10u);
    // Reads arrive in multiples of the batch size (plus the batch in
    // flight).
    EXPECT_GT(port.monitor().reads(), 100u);
}

TEST_F(PortsTest, StreamRecordDelaysThrottle)
{
    sys_.configureWorkload(0, stream(), sequential(200));
    ASSERT_TRUE(sys_.runUntilIdle(1 * kMillisecond));
    const Tick fast_done = sys_.now();

    System slow_sys{SystemConfig{}};
    Trace slow = sequential(200);
    for (auto &r : slow)
        r.delayNs = 100;  // 100 ns between issues
    slow_sys.configureWorkload(0, stream(), std::move(slow));
    ASSERT_TRUE(slow_sys.runUntilIdle(1 * kMillisecond));
    EXPECT_GT(slow_sys.now(), fast_done);
    EXPECT_GE(slow_sys.now(), 200 * 100 * kNanosecond);
}

TEST_F(PortsTest, MixedPortTypesCoexist)
{
    sys_.configureWorkload(0, gups(64));
    sys_.configureWorkload(1, stream(true), sequential(4096, 64));
    sys_.run(20 * kMicrosecond);
    EXPECT_GT(sys_.port(0).monitor().reads(), 100u);
    EXPECT_GT(sys_.port(1).monitor().reads(), 100u);
}

TEST_F(PortsTest, NinePortsShareFairly)
{
    for (PortId p = 0; p < 9; ++p) {
        WorkloadSpec w = gups();
        w.seed = 100 + p;
        sys_.configureWorkload(p, w);
    }
    sys_.run(10 * kMicrosecond);
    sys_.resetStats();
    sys_.run(20 * kMicrosecond);
    std::uint64_t min_reads = ~0ull, max_reads = 0;
    for (PortId p = 0; p < 9; ++p) {
        const std::uint64_t r = sys_.port(p).monitor().reads();
        min_reads = std::min(min_reads, r);
        max_reads = std::max(max_reads, r);
    }
    EXPECT_GT(min_reads, 0u);
    // Round-robin arbitration keeps ports within ~25% of each other
    // (per-link rotation plus deterministic tick phasing leaves some
    // residual skew).
    EXPECT_LT(static_cast<double>(max_reads - min_reads),
              0.25 * static_cast<double>(max_reads));
}

TEST_F(PortsTest, MonitorBandwidthUsesPaperFormula)
{
    sys_.configureWorkload(0, gups());
    sys_.run(10 * kMicrosecond);
    const Monitor &m = sys_.port(0).monitor();
    // Every 32 B read moves 16 B request + 48 B response on the wire.
    EXPECT_EQ(m.wireBytes(), m.reads() * 64u);
}

TEST_F(PortsTest, EmptyTraceIsFatal)
{
    EXPECT_THROW(sys_.configureWorkload(0, stream(), Trace{}), FatalError);
}

TEST_F(PortsTest, GivenTraceNeedsTraceWorkload)
{
    EXPECT_THROW(sys_.configureWorkload(0, gups(), sequential(8)),
                 FatalError);
}

TEST_F(PortsTest, ReplacingAPortWithRequestsInFlightIsFatal)
{
    // Its responses would reach the replacement's tag pool.
    sys_.configureWorkload(0, gups(64));
    sys_.run(3500 * kNanosecond);
    const std::uint32_t in_flight = sys_.port(0).inFlight();
    ASSERT_GT(in_flight, 0u);
    try {
        sys_.configureWorkload(0, gups(64));
        FAIL() << "replacing a busy port must be fatal";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("port 0"), std::string::npos) << msg;
        EXPECT_NE(msg.find(std::to_string(in_flight) + " requests"),
                  std::string::npos)
            << msg;
    }
    // Deactivated and drained, the port can be replaced and runs on.
    sys_.port(0).setActive(false);
    sys_.run(20 * kMicrosecond);
    WorkloadPort &fresh = sys_.configureWorkload(0, gups(64));
    sys_.run(5 * kMicrosecond);
    EXPECT_GT(fresh.monitor().reads(), 100u);
}

TEST_F(PortsTest, WritesInTraceProduceWrites)
{
    sys_.configureWorkload(0, stream(),
                           makeStreamTrace(0, 50, 64, 64, /*writes=*/true));
    ASSERT_TRUE(sys_.runUntilIdle(200 * kMicrosecond));
    EXPECT_EQ(sys_.port(0).monitor().writes(), 50u);
    EXPECT_EQ(sys_.port(0).monitor().reads(), 0u);
}

}  // namespace
}  // namespace hmcsim
