#include <gtest/gtest.h>

#include "common/histogram.h"
#include "common/stats.h"
#include "obs/metrics.h"

namespace hmcsim {
namespace {

TEST(MetricsRegistry, RegisterSnapshotRoundTrip)
{
    MetricsRegistry reg;
    Counter c;
    c.inc(7);
    SampleStats s;
    s.add(10.0);
    s.add(30.0);
    Histogram h(0.0, 100.0, 4);
    h.add(10.0);
    h.add(90.0);
    double depth = 3.0;

    reg.addCounter("a.requests", &c);
    reg.addSampler("a.latency", &s);
    reg.addHistogram("a.hist", &h);
    reg.addGauge("a.depth", [&depth] { return depth; });
    EXPECT_EQ(reg.size(), 4u);
    EXPECT_TRUE(reg.has("a.requests"));
    EXPECT_FALSE(reg.has("a.nope"));

    const MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.size(), 4u);
    EXPECT_DOUBLE_EQ(snap.value("a.requests"), 7.0);
    EXPECT_DOUBLE_EQ(snap.value("a.depth"), 3.0);

    const MetricPoint *lat = snap.find("a.latency");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->kind, MetricKind::Sampler);
    EXPECT_EQ(lat->sample.count(), 2u);
    EXPECT_DOUBLE_EQ(lat->sample.mean(), 20.0);

    const MetricPoint *hist = snap.find("a.hist");
    ASSERT_NE(hist, nullptr);
    ASSERT_EQ(hist->bins.size(), 4u);
    EXPECT_EQ(hist->bins[0], 1u);
    EXPECT_EQ(hist->bins[3], 1u);

    // Snapshot is detached: live changes don't retro-edit it.
    c.inc(100);
    depth = 9.0;
    EXPECT_DOUBLE_EQ(snap.value("a.requests"), 7.0);
    EXPECT_DOUBLE_EQ(snap.value("a.depth"), 3.0);
    EXPECT_DOUBLE_EQ(reg.snapshot().value("a.requests"), 107.0);
}

TEST(MetricsRegistry, ValueMatchesSnapshotValue)
{
    MetricsRegistry reg;
    Counter c;
    c.inc(7);
    SampleStats s;
    s.add(10.0);
    s.add(35.0);
    Histogram h(0.0, 100.0, 4);
    h.add(10.0);
    h.add(60.0);
    h.add(90.0);
    double depth = 3.5;

    reg.addCounter("a.requests", &c);
    reg.addGauge("a.depth_now", [&depth] { return depth; });
    reg.addSampler("a.latency", &s);
    reg.addHistogram("a.hist", &h);

    const MetricsSnapshot snap = reg.snapshot();
    for (const char *p :
         {"a.requests", "a.depth_now", "a.latency", "a.hist", "a.nope"})
        EXPECT_DOUBLE_EQ(reg.value(p), snap.value(p)) << p;
    EXPECT_DOUBLE_EQ(reg.value("a.requests"), 7.0);
    EXPECT_DOUBLE_EQ(reg.value("a.depth_now"), 3.5);
    EXPECT_DOUBLE_EQ(reg.value("a.latency"), 22.5);
    EXPECT_DOUBLE_EQ(reg.value("a.hist"), 3.0);
    EXPECT_DOUBLE_EQ(reg.value("a.nope"), 0.0);

    // value() reads the live entry, not a copy.
    depth = 8.0;
    c.inc(3);
    EXPECT_DOUBLE_EQ(reg.value("a.depth_now"), 8.0);
    EXPECT_DOUBLE_EQ(reg.value("a.requests"), 10.0);
}

TEST(MetricsRegistry, SnapshotMergeSemantics)
{
    MetricsRegistry reg1, reg2;
    Counter c1, c2;
    c1.inc(5);
    c2.inc(8);
    SampleStats s1, s2;
    s1.add(10.0);
    s2.add(20.0);
    s2.add(40.0);
    Histogram h1(0.0, 10.0, 2), h2(0.0, 10.0, 2);
    h1.add(1.0);
    h2.add(9.0);

    reg1.addCounter("x.count", &c1);
    reg1.addSampler("x.lat", &s1);
    reg1.addHistogram("x.hist", &h1);
    reg1.addGauge("x.gauge", [] { return 1.0; });
    reg1.addCounter("only_left", &c1);

    reg2.addCounter("x.count", &c2);
    reg2.addSampler("x.lat", &s2);
    reg2.addHistogram("x.hist", &h2);
    reg2.addGauge("x.gauge", [] { return 2.0; });
    reg2.addCounter("only_right", &c2);

    MetricsSnapshot merged = reg1.snapshot();
    merged.merge(reg2.snapshot());

    // Counters sum; samplers pool; gauges take the other side;
    // histograms add bin-wise; one-sided paths survive.
    EXPECT_DOUBLE_EQ(merged.value("x.count"), 13.0);
    const MetricPoint *lat = merged.find("x.lat");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->sample.count(), 3u);
    EXPECT_DOUBLE_EQ(lat->sample.sum(), 70.0);
    EXPECT_DOUBLE_EQ(merged.value("x.gauge"), 2.0);
    const MetricPoint *hist = merged.find("x.hist");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->bins[0], 1u);
    EXPECT_EQ(hist->bins[1], 1u);
    EXPECT_DOUBLE_EQ(merged.value("only_left"), 5.0);
    EXPECT_DOUBLE_EQ(merged.value("only_right"), 8.0);
}

TEST(MetricsRegistry, DeltaIsPerInterval)
{
    MetricsRegistry reg;
    Counter c;
    SampleStats s;
    double gauge = 1.0;
    Histogram h(0.0, 1.0, 2);
    reg.addCounter("c", &c);
    reg.addSampler("s", &s);
    reg.addGauge("g", [&gauge] { return gauge; });
    reg.addHistogram("h", &h);

    c.inc(10);
    s.add(5.0);
    const MetricsSnapshot t0 = reg.snapshot();

    c.inc(4);
    s.add(7.0);
    s.add(9.0);
    gauge = 42.0;
    const MetricsSnapshot t1 = reg.snapshot();

    const MetricsSnapshot d = t1.delta(t0);
    // Counter: difference. Sampler: the interval mean ((7+9)/2).
    // Gauge: the current reading. Histogram: dropped from rows.
    EXPECT_DOUBLE_EQ(d.value("c"), 4.0);
    const MetricPoint *ds = d.find("s");
    ASSERT_NE(ds, nullptr);
    EXPECT_DOUBLE_EQ(ds->value, 8.0);
    EXPECT_EQ(ds->sample.count(), 1u);
    EXPECT_DOUBLE_EQ(ds->sample.mean(), 8.0);
    EXPECT_DOUBLE_EQ(d.value("g"), 42.0);
    EXPECT_EQ(d.find("h"), nullptr);
}

TEST(MetricsRegistry, SnapshotResetDropsEverything)
{
    MetricsRegistry reg;
    Counter c;
    reg.addCounter("c", &c);
    MetricsSnapshot snap = reg.snapshot();
    EXPECT_FALSE(snap.empty());
    snap.reset();
    EXPECT_TRUE(snap.empty());
    EXPECT_EQ(snap.find("c"), nullptr);
}

TEST(MetricsRegistry, OwnerTokenProtectsReplacement)
{
    // A later owner overwrites the path before the earlier one
    // unregisters; that unregistration must not tear down the
    // successor's entry.
    MetricsRegistry reg;
    Counter oldC, newC;
    oldC.inc(1);
    newC.inc(2);
    reg.addCounter("port0.reads", &oldC, &oldC);
    reg.addCounter("port0.reads", &newC, &newC);  // replacement
    reg.removeOwned("port0.reads", &oldC);        // old owner dies
    ASSERT_TRUE(reg.has("port0.reads"));
    EXPECT_DOUBLE_EQ(reg.snapshot().value("port0.reads"), 2.0);
    reg.removeOwned("port0.reads", &newC);
    EXPECT_FALSE(reg.has("port0.reads"));
}

TEST(MetricSet, UnboundSetIsInert)
{
    MetricSet set;
    Counter c;
    EXPECT_FALSE(set.bound());
    set.counter("x", c);  // must not crash or register anywhere
    set.gauge("y", [] { return 0.0; });
}

TEST(MetricSet, UnregistersOnDestruction)
{
    MetricsRegistry reg;
    Counter c;
    {
        MetricSet set;
        set.bind(&reg, "sys.comp");
        set.counter("hits", c);
        EXPECT_TRUE(reg.has("sys.comp.hits"));
    }
    EXPECT_FALSE(reg.has("sys.comp.hits"));
    EXPECT_EQ(reg.size(), 0u);
}

TEST(MetricSet, SubtreeSnapshotFiltersByPrefix)
{
    MetricsRegistry reg;
    Counter a, b;
    a.inc(1);
    b.inc(2);
    MetricSet s1, s2;
    s1.bind(&reg, "sys.vault0");
    s2.bind(&reg, "sys.port0");
    s1.counter("served", a);
    s2.counter("reads", b);

    const MetricsSnapshot sub = reg.snapshotSubtree("sys.vault");
    EXPECT_EQ(sub.size(), 1u);
    EXPECT_DOUBLE_EQ(sub.value("sys.vault0.served"), 1.0);
}

}  // namespace
}  // namespace hmcsim
