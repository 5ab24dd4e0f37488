/**
 * @file
 * Base class for named simulation components.  Components form a tree
 * (device -> vault controller -> bank, ...) whose paths name statistics
 * in dumps, mirroring gem5's SimObject hierarchy at a small scale.
 *
 * Each component lists its statistics once, in listStats(); tree walks
 * turn that one list into the System::stats() map (reportStats), the
 * stats reset (resetStats) and, when metrics are on, the
 * MetricsRegistry entries (bindMetrics).
 */

#ifndef HMCSIM_SIM_COMPONENT_H_
#define HMCSIM_SIM_COMPONENT_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/kernel.h"

namespace hmcsim {

class MetricSet;
class MetricsRegistry;
class StatList;

class Component
{
  public:
    /**
     * @param kernel the simulation kernel (not owned, must outlive us)
     * @param parent enclosing component or nullptr for a root
     * @param name leaf name; the full path is parent-path.name
     */
    Component(Kernel &kernel, Component *parent, std::string name);

    virtual ~Component();

    Component(const Component &) = delete;
    Component &operator=(const Component &) = delete;

    const std::string &name() const { return name_; }
    std::string path() const;
    Component *parent() const { return parent_; }
    const std::vector<Component *> &children() const { return children_; }

    Kernel &kernel() const { return kernel_; }
    Tick now() const { return kernel_.now(); }

    /**
     * Write this subtree's listed statistics into @p out as
     * path-qualified scalars: a counter's value, a sampler's mean, a
     * histogram's total, a gauge's reading (MetricsRegistry::value()).
     */
    void reportStats(std::map<std::string, double> &out) const;

    /** Reset this subtree's listed counters, samplers and histograms,
     *  and run each component's resetOwnStats(). */
    void resetStats();

    /** Register this subtree's listed statistics in @p reg under their
     *  paths; each component's entries leave @p reg when it dies. */
    void bindMetrics(MetricsRegistry &reg);

    /** The registry bindMetrics() bound this component to, or null. */
    MetricsRegistry *boundRegistry() const;

  protected:
    /** List this component's own statistics, each once (see StatList
     *  in obs/metrics.h).  Default: none. */
    virtual void listStats(StatList &list) const;

    /** Reset own state that is not a listed counter, sampler or
     *  histogram (a peak, a window base).  Default: nothing. */
    virtual void resetOwnStats();

  private:
    Kernel &kernel_;
    Component *parent_;
    std::string name_;
    std::vector<Component *> children_;
    std::unique_ptr<MetricSet> metrics_;

    void addChild(Component *child);
    void removeChild(Component *child);
};

}  // namespace hmcsim

#endif  // HMCSIM_SIM_COMPONENT_H_
