#include "obs/metrics.h"

#include <algorithm>

#include "common/log.h"

namespace hmcsim {

void
StatReset::counter(std::string_view, const Counter &c)
{
    // The listed stats are members of the non-const component being
    // reset; listStats() hands them out const for the readers.
    const_cast<Counter &>(c).reset();
}

void
StatReset::sampler(std::string_view, const SampleStats &s)
{
    const_cast<SampleStats &>(s).reset();
}

void
StatReset::histogram(std::string_view, const Histogram &h)
{
    const_cast<Histogram &>(h).reset();
}

void
MetricPoint::merge(const MetricPoint &other)
{
    if (kind != other.kind)
        panic("MetricPoint::merge: kind mismatch");
    switch (kind) {
      case MetricKind::Counter:
        value += other.value;
        break;
      case MetricKind::Gauge:
        value = other.value;
        break;
      case MetricKind::Sampler:
        sample.merge(other.sample);
        break;
      case MetricKind::Histogram:
        if (bins.empty()) {
            *this = other;
            break;
        }
        if (bins.size() != other.bins.size() || binLo != other.binLo ||
            binHi != other.binHi)
            panic("MetricPoint::merge: histogram shape mismatch");
        for (std::size_t i = 0; i < bins.size(); ++i)
            bins[i] += other.bins[i];
        break;
    }
}

const MetricPoint *
MetricsSnapshot::find(const std::string &path) const
{
    const auto it = points_.find(path);
    return it == points_.end() ? nullptr : &it->second;
}

double
MetricsSnapshot::value(const std::string &path) const
{
    const MetricPoint *p = find(path);
    return p ? p->value : 0.0;
}

void
MetricsSnapshot::merge(const MetricsSnapshot &other)
{
    for (const auto &[path, point] : other.points_) {
        const auto it = points_.find(path);
        if (it == points_.end())
            points_.emplace(path, point);
        else
            it->second.merge(point);
    }
}

MetricsSnapshot
MetricsSnapshot::delta(const MetricsSnapshot &earlier) const
{
    MetricsSnapshot out;
    for (const auto &[path, point] : points_) {
        const MetricPoint *prev = earlier.find(path);
        MetricPoint d = point;
        switch (point.kind) {
          case MetricKind::Counter:
            if (prev)
                d.value -= prev->value;
            break;
          case MetricKind::Gauge:
            break;  // current reading
          case MetricKind::Sampler: {
            // Interval statistics: only count/sum subtract cleanly, so
            // the delta point carries the interval mean as its value
            // and a fresh SampleStats holding just the interval sum.
            const std::uint64_t prevN = prev ? prev->sample.count() : 0;
            const double prevSum = prev ? prev->sample.sum() : 0.0;
            const std::uint64_t n = point.sample.count() - prevN;
            const double sum = point.sample.sum() - prevSum;
            d.sample.reset();
            d.value = n ? sum / static_cast<double>(n) : 0.0;
            if (n)
                d.sample.add(d.value);  // carries count=1, mean=interval
            break;
          }
          case MetricKind::Histogram:
            continue;  // dropped from interval rows
        }
        out.points_.emplace(path, std::move(d));
    }
    return out;
}

void
MetricsRegistry::addCounter(std::string path, const Counter *c,
                            const void *owner)
{
    entries_[std::move(path)] = Entry{MetricKind::Counter, c, {}, nullptr,
                                      nullptr, owner};
}

void
MetricsRegistry::addGauge(std::string path, StatList::Gauge fn,
                          const void *owner)
{
    entries_[std::move(path)] = Entry{MetricKind::Gauge, nullptr,
                                      std::move(fn), nullptr, nullptr, owner};
}

void
MetricsRegistry::addSampler(std::string path, const SampleStats *s,
                            const void *owner)
{
    entries_[std::move(path)] = Entry{MetricKind::Sampler, nullptr, {}, s,
                                      nullptr, owner};
}

void
MetricsRegistry::addHistogram(std::string path, const Histogram *h,
                              const void *owner)
{
    entries_[std::move(path)] = Entry{MetricKind::Histogram, nullptr, {},
                                      nullptr, h, owner};
}

void
MetricsRegistry::removeOwned(const std::string &prefix, const void *owner)
{
    for (auto it = entries_.lower_bound(prefix); it != entries_.end() &&
         it->first.compare(0, prefix.size(), prefix) == 0;) {
        if (it->second.owner == owner)
            it = entries_.erase(it);
        else
            ++it;
    }
}

bool
MetricsRegistry::has(const std::string &path) const
{
    return entries_.count(path) != 0;
}

std::vector<std::string>
MetricsRegistry::paths() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto &[path, entry] : entries_) {
        (void)entry;
        out.push_back(path);
    }
    return out;
}

double
MetricsRegistry::scalar(const Entry &e)
{
    switch (e.kind) {
      case MetricKind::Counter:
        return static_cast<double>(e.counter->value());
      case MetricKind::Gauge:
        return e.gauge();
      case MetricKind::Sampler:
        return e.sampler->mean();
      case MetricKind::Histogram:
        return static_cast<double>(e.histogram->total());
    }
    return 0.0;
}

MetricPoint
MetricsRegistry::materialize(const Entry &e)
{
    MetricPoint p;
    p.kind = e.kind;
    p.value = scalar(e);
    if (e.kind == MetricKind::Sampler) {
        p.sample = *e.sampler;
    } else if (e.kind == MetricKind::Histogram) {
        p.binLo = e.histogram->lo();
        p.binHi = e.histogram->hi();
        p.bins.resize(e.histogram->bins());
        for (std::size_t i = 0; i < p.bins.size(); ++i)
            p.bins[i] = e.histogram->count(i);
    }
    return p;
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot out;
    for (const auto &[path, entry] : entries_)
        out.mutablePoints().emplace(path, materialize(entry));
    return out;
}

double
MetricsRegistry::value(const std::string &path) const
{
    const auto it = entries_.find(path);
    return it == entries_.end() ? 0.0 : scalar(it->second);
}

MetricsSnapshot
MetricsRegistry::snapshotSubtree(const std::string &prefix) const
{
    MetricsSnapshot out;
    for (auto it = entries_.lower_bound(prefix); it != entries_.end();
         ++it) {
        if (it->first.compare(0, prefix.size(), prefix) != 0)
            break;
        out.mutablePoints().emplace(it->first, materialize(it->second));
    }
    return out;
}

MetricSet::~MetricSet()
{
    if (reg_)
        reg_->removeOwned(prefix_, this);
}

void
MetricSet::bind(MetricsRegistry *reg, std::string base)
{
    if (reg_)
        panic("MetricSet::bind: already bound");
    reg_ = reg;
    prefix_ = base.empty() ? base : std::move(base) + ".";
}

std::string
MetricSet::qualify(std::string_view name) const
{
    std::string path;
    path.reserve(prefix_.size() + name.size());
    path.append(prefix_).append(name);
    return path;
}

void
MetricSet::counter(std::string_view name, const Counter &c)
{
    if (reg_)
        reg_->addCounter(qualify(name), &c, this);
}

void
MetricSet::gauge(std::string_view name, Gauge g)
{
    if (reg_)
        reg_->addGauge(qualify(name), std::move(g), this);
}

void
MetricSet::sampler(std::string_view name, const SampleStats &s)
{
    if (reg_)
        reg_->addSampler(qualify(name), &s, this);
}

void
MetricSet::histogram(std::string_view name, const Histogram &h)
{
    if (reg_)
        reg_->addHistogram(qualify(name), &h, this);
}

}  // namespace hmcsim
