#include <gtest/gtest.h>

#include "common/log.h"
#include "obs/metrics.h"
#include "sim/component.h"

namespace hmcsim {
namespace {

class Root : public Component
{
  public:
    explicit Root(Kernel &k) : Component(k, nullptr, "root") {}
};

class Leaf : public Component
{
  public:
    Leaf(Kernel &k, Component *parent, std::string name)
        : Component(k, parent, std::move(name))
    {
    }

    Counter hits;
    int peak = 0;

  protected:
    void
    listStats(StatList &s) const override
    {
        s.counter("hits", hits);
        s.level("peak", peak);
    }

    void resetOwnStats() override { peak = 0; }
};

TEST(Component, PathConstruction)
{
    Kernel k;
    Root root(k);
    Leaf a(k, &root, "a");
    Leaf b(k, &a, "b");
    EXPECT_EQ(root.path(), "root");
    EXPECT_EQ(a.path(), "root.a");
    EXPECT_EQ(b.path(), "root.a.b");
}

TEST(Component, ChildrenTracking)
{
    Kernel k;
    Root root(k);
    {
        Leaf a(k, &root, "a");
        EXPECT_EQ(root.children().size(), 1u);
    }
    EXPECT_TRUE(root.children().empty());  // destructor deregisters
}

TEST(Component, StatsRecurse)
{
    Kernel k;
    Root root(k);
    Leaf a(k, &root, "a");
    Leaf b(k, &root, "b");
    a.hits.inc(3);
    b.peak = 4;
    std::map<std::string, double> stats;
    root.reportStats(stats);
    EXPECT_EQ(stats.size(), 4u);
    EXPECT_DOUBLE_EQ(stats.at("root.a.hits"), 3.0);
    EXPECT_DOUBLE_EQ(stats.at("root.b.peak"), 4.0);
}

TEST(Component, ResetRecurses)
{
    Kernel k;
    Root root(k);
    Leaf a(k, &root, "a");
    Leaf b(k, &a, "b");
    b.hits.inc(9);
    b.peak = 9;
    root.resetStats();
    EXPECT_EQ(b.hits.value(), 0u);  // listed: reset by the walk
    EXPECT_EQ(b.peak, 0);           // gauge state: resetOwnStats
}

TEST(Component, BindMetricsRegistersTheListedStats)
{
    MetricsRegistry reg;  // outlives the components bound to it
    Kernel k;
    Root root(k);
    Leaf a(k, &root, "a");
    a.hits.inc(2);
    a.peak = 5;
    EXPECT_EQ(root.boundRegistry(), nullptr);
    root.bindMetrics(reg);
    EXPECT_EQ(a.boundRegistry(), &reg);
    EXPECT_EQ(reg.paths(),
              (std::vector<std::string>{"root.a.hits", "root.a.peak"}));
    EXPECT_DOUBLE_EQ(reg.value("root.a.hits"), 2.0);
    a.peak = 6;  // gauges read live state
    EXPECT_DOUBLE_EQ(reg.value("root.a.peak"), 6.0);
    {
        Leaf late(k, &root, "late");
        late.bindMetrics(reg);
        EXPECT_TRUE(reg.has("root.late.hits"));
    }
    EXPECT_FALSE(reg.has("root.late.hits"));  // left with its component
}

TEST(Component, NowDelegatesToKernel)
{
    Kernel k;
    Root root(k);
    k.scheduleIn(123, [] {});
    k.run();
    EXPECT_EQ(root.now(), 123u);
}

TEST(Component, EmptyNamePanics)
{
    Kernel k;
    EXPECT_THROW(Leaf(k, nullptr, ""), PanicError);
}

TEST(Component, DottedNamePanics)
{
    Kernel k;
    Root root(k);
    EXPECT_THROW(Leaf(k, &root, "a.b"), PanicError);
}

}  // namespace
}  // namespace hmcsim
