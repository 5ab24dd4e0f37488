#include "obs/metrics.h"

#include <algorithm>

#include "common/log.h"

namespace hmcsim {

std::string
toString(MetricKind k)
{
    switch (k) {
      case MetricKind::Counter:
        return "counter";
      case MetricKind::Gauge:
        return "gauge";
      case MetricKind::Sampler:
        return "sampler";
      case MetricKind::Histogram:
        return "histogram";
    }
    return "counter";
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
MetricsRegistry::addCounter(const std::string &path, const Counter *c,
                            const void *owner)
{
    Entry e;
    e.kind = MetricKind::Counter;
    e.counter = c;
    e.owner = owner;
    entries_[path] = std::move(e);
}

void
MetricsRegistry::addGauge(const std::string &path,
                          std::function<double()> fn, const void *owner)
{
    Entry e;
    e.kind = MetricKind::Gauge;
    e.gauge = std::move(fn);
    e.owner = owner;
    entries_[path] = std::move(e);
}

void
MetricsRegistry::addSampler(const std::string &path, const SampleStats *s,
                            const void *owner)
{
    Entry e;
    e.kind = MetricKind::Sampler;
    e.sampler = s;
    e.owner = owner;
    entries_[path] = std::move(e);
}

void
MetricsRegistry::addHistogram(const std::string &path, const Histogram *h,
                              const void *owner)
{
    Entry e;
    e.kind = MetricKind::Histogram;
    e.histogram = h;
    e.owner = owner;
    entries_[path] = std::move(e);
}

void
MetricsRegistry::remove(const std::string &path, const void *owner)
{
    const auto it = entries_.find(path);
    if (it == entries_.end())
        return;
    if (owner != nullptr && it->second.owner != owner)
        return;  // someone re-registered the path; it is theirs now
    entries_.erase(it);
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
    if (!reg_)
        return;
    for (const std::string &p : paths_)
        reg_->remove(p, this);
}

void
MetricSet::bind(MetricsRegistry *reg, std::string base)
{
    if (reg_ && !paths_.empty())
        panic("MetricSet::bind: already bound with live registrations");
    reg_ = reg;
    base_ = std::move(base);
}

std::string
MetricSet::qualify(const std::string &name) const
{
    return base_.empty() ? name : base_ + "." + name;
}

void
MetricSet::counter(const std::string &name, const Counter *c)
{
    if (!reg_)
        return;
    const std::string p = qualify(name);
    reg_->addCounter(p, c, this);
    paths_.push_back(p);
}

void
MetricSet::gauge(const std::string &name, std::function<double()> fn)
{
    if (!reg_)
        return;
    const std::string p = qualify(name);
    reg_->addGauge(p, std::move(fn), this);
    paths_.push_back(p);
}

void
MetricSet::sampler(const std::string &name, const SampleStats *s)
{
    if (!reg_)
        return;
    const std::string p = qualify(name);
    reg_->addSampler(p, s, this);
    paths_.push_back(p);
}

void
MetricSet::histogram(const std::string &name, const Histogram *h)
{
    if (!reg_)
        return;
    const std::string p = qualify(name);
    reg_->addHistogram(p, h, this);
    paths_.push_back(p);
}

}  // namespace hmcsim
