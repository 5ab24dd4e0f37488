#include <gtest/gtest.h>

#include "common/log.h"
#include "common/types.h"
#include "host/monitor.h"
#include "obs/metrics.h"

namespace hmcsim {
namespace {

TEST(Monitor, RecordsReadLatency)
{
    Monitor m(0.0);
    m.recordRead(0, 1000 * kNanosecond, 160);
    EXPECT_EQ(m.reads(), 1u);
    EXPECT_EQ(m.writes(), 0u);
    EXPECT_DOUBLE_EQ(m.readLatencyNs().mean(), 1000.0);
    EXPECT_EQ(m.wireBytes(), 160u);
}

TEST(Monitor, BaseLatencyAdded)
{
    Monitor m(547.0);
    m.recordRead(0, 100 * kNanosecond, 48);
    EXPECT_DOUBLE_EQ(m.readLatencyNs().mean(), 647.0);
    EXPECT_DOUBLE_EQ(m.baseLatencyNs(), 547.0);
}

TEST(Monitor, WritesTrackedSeparately)
{
    Monitor m(0.0);
    m.recordWrite(0, 500 * kNanosecond, 160);
    m.recordRead(0, 100 * kNanosecond, 48);
    EXPECT_EQ(m.accesses(), 2u);
    EXPECT_DOUBLE_EQ(m.writeLatencyNs().mean(), 500.0);
    EXPECT_DOUBLE_EQ(m.readLatencyNs().mean(), 100.0);
    EXPECT_EQ(m.wireBytes(), 208u);
}

TEST(Monitor, MinMaxTracked)
{
    Monitor m(0.0);
    m.recordRead(0, 100 * kNanosecond, 1);
    m.recordRead(0, 300 * kNanosecond, 1);
    m.recordRead(0, 200 * kNanosecond, 1);
    EXPECT_DOUBLE_EQ(m.readLatencyNs().min(), 100.0);
    EXPECT_DOUBLE_EQ(m.readLatencyNs().max(), 300.0);
}

TEST(Monitor, HistogramCollectsReads)
{
    Monitor m(0.0);
    m.enableHistogram(0.0, 1000.0, 10);
    m.recordRead(0, 150 * kNanosecond, 1);
    m.recordRead(0, 250 * kNanosecond, 1);
    ASSERT_NE(m.histogram(), nullptr);
    EXPECT_EQ(m.histogram()->total(), 2u);
    EXPECT_EQ(m.histogram()->count(1), 1u);
    EXPECT_EQ(m.histogram()->count(2), 1u);
}

TEST(Monitor, HistogramIncludesBaseLatency)
{
    Monitor m(500.0);
    m.enableHistogram(0.0, 1000.0, 2);
    m.recordRead(0, 100 * kNanosecond, 1);  // 600 ns with base
    EXPECT_EQ(m.histogram()->count(1), 1u);
}

TEST(Monitor, ResetClearsEverything)
{
    Monitor m(0.0);
    m.enableHistogram(0.0, 1000.0, 4);
    m.recordRead(0, 100 * kNanosecond, 64);
    // What the owning port's Component::resetStats() runs.
    StatReset listed;
    m.listStats(listed);
    m.resetUnlisted();
    EXPECT_EQ(m.reads(), 0u);
    EXPECT_EQ(m.wireBytes(), 0u);
    EXPECT_EQ(m.readLatencyNs().count(), 0u);
    EXPECT_EQ(m.histogram()->total(), 0u);
}

TEST(Monitor, CompletionBeforeCreationPanics)
{
    Monitor m(0.0);
    EXPECT_THROW(m.recordRead(100, 50, 1), PanicError);
}

}  // namespace
}  // namespace hmcsim
