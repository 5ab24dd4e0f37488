#include "obs/sampler.h"

#include "common/log.h"
#include "common/strutil.h"
#include "common/units.h"

namespace hmcsim {

TimeSeriesSampler::TimeSeriesSampler(Kernel &kernel,
                                     const MetricsRegistry &registry,
                                     Tick interval, std::string csv_path)
    : kernel_(kernel), registry_(registry), interval_(interval),
      path_(std::move(csv_path))
{
    if (interval_ == 0)
        fatal("obs: sampler interval must be > 0");
}

void
TimeSeriesSampler::start()
{
    if (started_)
        return;
    started_ = true;
    out_.open(path_);
    if (!out_)
        fatal("obs: cannot open sample csv '" + path_ + "'");
    prev_ = registry_.snapshot();
    kernel_.scheduleIn(interval_, [this] { fire(); });
}

void
TimeSeriesSampler::writeHeader(const MetricsSnapshot &snap)
{
    columns_.clear();
    for (const auto &[path, point] : snap.points()) {
        if (point.kind == MetricKind::Histogram)
            continue;
        columns_.push_back(path);
    }
    out_ << "time_ns";
    for (const std::string &c : columns_)
        out_ << ',' << c;
    out_ << '\n';
}

void
TimeSeriesSampler::writeRow()
{
    const MetricsSnapshot snap = registry_.snapshot();
    const MetricsSnapshot delta = snap.delta(prev_);
    if (columns_.empty())
        writeHeader(snap);
    out_ << formatDouble(ticksToNs(kernel_.now()), 0);
    for (const std::string &c : columns_) {
        const MetricPoint *p = delta.find(c);
        out_ << ',' << formatDouble(p ? p->value : 0.0, 6);
    }
    out_ << '\n';
    out_.flush();
    ++rows_;
    prev_ = snap;
}

void
TimeSeriesSampler::fire()
{
    writeRow();
    kernel_.scheduleIn(interval_, [this] { fire(); });
}

void
TimeSeriesSampler::rebase()
{
    if (started_)
        prev_ = registry_.snapshot();
}

void
TimeSeriesSampler::restart(const std::string &prefix)
{
    MetricsSnapshot::Map &prev = prev_.mutablePoints();
    auto it = prev.lower_bound(prefix);
    while (it != prev.end() && startsWith(it->first, prefix))
        it = prev.erase(it);
}

void
TimeSeriesSampler::flushNow()
{
    if (!started_)
        return;
    writeRow();
}

}  // namespace hmcsim
