#include "sim/component.h"

#include <algorithm>

#include "common/log.h"
#include "obs/metrics.h"

namespace hmcsim {

namespace {

/** Writes each listed statistic's scalar (MetricsRegistry::value's
 *  rule) under `<prefix><name>`. */
class StatReport final : public StatList
{
  public:
    StatReport(std::map<std::string, double> &out, std::string prefix)
        : out_(out), prefix_(std::move(prefix))
    {
    }

    void
    counter(std::string_view name, const Counter &c) override
    {
        at(name) = static_cast<double>(c.value());
    }

    void
    sampler(std::string_view name, const SampleStats &s) override
    {
        at(name) = s.mean();
    }

    void
    histogram(std::string_view name, const Histogram &h) override
    {
        at(name) = static_cast<double>(h.total());
    }

    void
    gauge(std::string_view name, Gauge g) override
    {
        at(name) = g();
    }

  private:
    std::map<std::string, double> &out_;
    std::string prefix_;

    double &
    at(std::string_view name)
    {
        return out_[prefix_ + std::string(name)];
    }
};

}  // namespace

Component::Component(Kernel &kernel, Component *parent, std::string name)
    : kernel_(kernel), parent_(parent), name_(std::move(name))
{
    if (name_.empty())
        panic("Component: empty name");
    if (name_.find('.') != std::string::npos)
        panic("Component '" + name_ + "': '.' is reserved for paths");
    if (parent_)
        parent_->addChild(this);
}

Component::~Component()
{
    if (parent_)
        parent_->removeChild(this);
}

std::string
Component::path() const
{
    if (!parent_)
        return name_;
    return parent_->path() + "." + name_;
}

void
Component::addChild(Component *child)
{
    children_.push_back(child);
}

void
Component::removeChild(Component *child)
{
    auto it = std::find(children_.begin(), children_.end(), child);
    if (it != children_.end())
        children_.erase(it);
}

void
Component::reportStats(std::map<std::string, double> &out) const
{
    StatReport report(out, path() + ".");
    listStats(report);
    for (const Component *c : children_)
        c->reportStats(out);
}

void
Component::resetStats()
{
    StatReset reset;
    listStats(reset);
    resetOwnStats();
    for (Component *c : children_)
        c->resetStats();
}

void
Component::bindMetrics(MetricsRegistry &reg)
{
    metrics_ = std::make_unique<MetricSet>();
    metrics_->bind(&reg, path());
    listStats(*metrics_);
    for (Component *c : children_)
        c->bindMetrics(reg);
}

MetricsRegistry *
Component::boundRegistry() const
{
    return metrics_ ? metrics_->registry() : nullptr;
}

void
Component::listStats(StatList &) const
{
}

void
Component::resetOwnStats()
{
}

}  // namespace hmcsim
