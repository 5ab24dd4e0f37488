#include "obs/anatomy.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/log.h"
#include "common/units.h"

namespace hmcsim {

const char *
toString(AnatomyPhase p)
{
    switch (p) {
      case AnatomyPhase::HostQueue:
        return "host_queue";
      case AnatomyPhase::LinkSerialize:
        return "link_serialize";
      case AnatomyPhase::ChainFwdReq:
        return "chain_fwd_req";
      case AnatomyPhase::NocRequest:
        return "noc_request";
      case AnatomyPhase::VaultQueue:
        return "vault_queue";
      case AnatomyPhase::DramService:
        return "dram_service";
      case AnatomyPhase::RespInject:
        return "resp_inject";
      case AnatomyPhase::RespReturn:
        return "resp_return";
      case AnatomyPhase::HostDrain:
        return "host_drain";
    }
    return "unknown";
}

PhaseBreakdown
PhaseBreakdown::fromPacket(const HmcPacket &resp)
{
    PhaseBreakdown b;
    b.write = resp.cmd == HmcCmd::WriteResponse ||
              resp.cmd == HmcCmd::Write;

    const std::array<Tick, kNumAnatomyPhases + 1> stamps = {
        resp.createdAt,     resp.linkTxAt,     resp.chainIngressAt,
        resp.cubeArriveAt,  resp.vaultArriveAt, resp.dramStartAt,
        resp.dataReadyAt,   resp.respInjectAt, resp.respHostLinkAt,
        resp.hostArriveAt,
    };

    // Telescoping walk.  An unstamped (zero) timestamp yields a
    // zero-length phase whose span folds into the next stamped one;
    // a stamped-but-backward timestamp clamps to zero length and marks
    // the breakdown non-monotone.  Either way the phase sum stays
    // exactly hostArriveAt - createdAt.
    Tick prev = stamps[0];
    for (std::size_t i = 1; i <= kNumAnatomyPhases; ++i) {
        const Tick t = stamps[i];
        if (t == 0) {
            b.phase[i - 1] = 0;
            continue;  // prev carries forward
        }
        if (t < prev) {
            b.phase[i - 1] = 0;
            b.monotone = false;
            continue;  // keep prev: later phases measure from it
        }
        b.phase[i - 1] = t - prev;
        prev = t;
    }

    b.endToEnd = resp.hostArriveAt >= resp.createdAt
                     ? resp.hostArriveAt - resp.createdAt
                     : 0;
    const Tick s = b.sum();
    b.residual = s >= b.endToEnd ? s - b.endToEnd : b.endToEnd - s;
    return b;
}

AnatomyCollector::AnatomyCollector(const ObsConfig &cfg,
                                   MetricsRegistry *reg)
    : reg_(reg), histHiNs_(static_cast<double>(cfg.anatomyHistNs)),
      histBins_(static_cast<std::size_t>(cfg.anatomyHistBins))
{
    if (!reg_)
        fatal("AnatomyCollector needs a metrics registry");
    for (int w = 0; w < 2; ++w) {
        hist_[w].reserve(kNumAnatomyPhases);
        for (std::size_t p = 0; p < kNumAnatomyPhases; ++p)
            hist_[w].emplace_back(0.0, histHiNs_, histBins_);
        e2e_[w] = std::make_unique<Histogram>(0.0, histHiNs_, histBins_);
    }

    metrics_.bind(reg_, "obs.anatomy");
    for (int w = 0; w < 2; ++w) {
        const std::string rw = w ? "write" : "read";
        for (std::size_t p = 0; p < kNumAnatomyPhases; ++p) {
            const auto ph = static_cast<AnatomyPhase>(p);
            metrics_.histogram(rw + "." + toString(ph) + "_ns",
                               hist_[w][p]);
        }
        metrics_.histogram(rw + ".end_to_end_ns", *e2e_[w]);
    }
    for (std::size_t p = 0; p < kNumAnatomyPhases; ++p) {
        const auto ph = static_cast<AnatomyPhase>(p);
        metrics_.sampler(std::string(toString(ph)) + "_ns", stats_[p]);
    }
    metrics_.sampler("end_to_end_ns", e2eStats_);
    metrics_.counter("completions", completions_);
    metrics_.counter("monotonicity_violations", monotonicityViolations_);
    metrics_.counter("residual_violations", residualViolations_);
}

AnatomyCollector::~AnatomyCollector()
{
    reg_->removeOwned("obs.anatomy.by_key.", this);
}

void
AnatomyCollector::setChainHopFloor(Tick per_hop_fixed, Tick per_flit)
{
    hopFixed_ = per_hop_fixed;
    hopPerFlit_ = per_flit;
}

AnatomyCollector::KeyStats &
AnatomyCollector::keyStats(const Key &k)
{
    auto it = keys_.find(k);
    if (it != keys_.end())
        return it->second;
    it = keys_.emplace(k, KeyStats{}).first;
    // Publish the new breakdown cell so snapshots/samplers see it.
    std::ostringstream base;
    base << "obs.anatomy.by_key.host" << k.host << ".cube" << k.cube
         << ".vault" << k.vault << (k.write ? ".write" : ".read");
    for (std::size_t p = 0; p < kNumAnatomyPhases; ++p) {
        const auto ph = static_cast<AnatomyPhase>(p);
        reg_->addSampler(base.str() + "." + toString(ph) + "_ns",
                         &it->second[p], this);
    }
    return it->second;
}

void
AnatomyCollector::onComplete(const HmcPacket &resp)
{
    const PhaseBreakdown b = PhaseBreakdown::fromPacket(resp);
    completions_.inc();
    if (!b.monotone)
        monotonicityViolations_.inc();
    if (b.residual != 0) {
        residualViolations_.inc();
        maxResidualNs_ =
            std::max(maxResidualNs_, ticksToNs(b.residual));
    }

    const int w = b.write ? 1 : 0;
    KeyStats &ks = keyStats(
        Key{resp.host, resp.cube, resp.vault, b.write});
    for (std::size_t p = 0; p < kNumAnatomyPhases; ++p) {
        const double ns = ticksToNs(b.phase[p]);
        hist_[w][p].add(ns);
        stats_[p].add(ns);
        ks[p].add(ns);
    }
    const double e2eNs = ticksToNs(b.endToEnd);
    e2e_[w]->add(e2eNs);
    e2eStats_.add(e2eNs);

    // Chain-forward queueing-vs-service split: the request-direction
    // floor is what reqHops pass-throughs cost with empty queues.
    const Tick measured =
        b.phase[static_cast<std::size_t>(AnatomyPhase::ChainFwdReq)];
    const Tick floor =
        static_cast<Tick>(resp.reqHops) *
        (hopFixed_ + static_cast<Tick>(resp.flits()) * hopPerFlit_);
    const Tick boundedFloor = std::min(measured, floor);
    chainFloorNs_.add(ticksToNs(boundedFloor));
    chainExcessNs_.add(ticksToNs(measured - boundedFloor));
}

void
AnatomyCollector::reset()
{
    for (int w = 0; w < 2; ++w) {
        for (Histogram &h : hist_[w])
            h.reset();
        e2e_[w]->reset();
    }
    for (SampleStats &s : stats_)
        s.reset();
    e2eStats_.reset();
    chainFloorNs_.reset();
    chainExcessNs_.reset();
    completions_.reset();
    monotonicityViolations_.reset();
    residualViolations_.reset();
    maxResidualNs_ = 0.0;
    for (auto &[k, ks] : keys_)
        for (SampleStats &s : ks)
            s.reset();
}

const Histogram &
AnatomyCollector::phaseHist(AnatomyPhase p, bool write) const
{
    return hist_[write ? 1 : 0][static_cast<std::size_t>(p)];
}

const Histogram &
AnatomyCollector::endToEndHist(bool write) const
{
    return *e2e_[write ? 1 : 0];
}

const SampleStats &
AnatomyCollector::phaseStats(AnatomyPhase p) const
{
    return stats_[static_cast<std::size_t>(p)];
}

std::vector<AnatomyWaterfallRow>
AnatomyCollector::waterfall() const
{
    double totalMean = 0.0;
    for (const SampleStats &s : stats_)
        totalMean += s.mean();

    std::vector<AnatomyWaterfallRow> rows;
    rows.reserve(kNumAnatomyPhases);
    for (std::size_t p = 0; p < kNumAnatomyPhases; ++p) {
        // Merge the read/write histograms for the combined percentiles.
        Histogram merged(0.0, histHiNs_, histBins_);
        merged.merge(hist_[0][p]);
        merged.merge(hist_[1][p]);
        AnatomyWaterfallRow row;
        row.phase = toString(static_cast<AnatomyPhase>(p));
        row.count = stats_[p].count();
        row.meanNs = stats_[p].mean();
        row.p50Ns = merged.percentile(50.0);
        row.p99Ns = merged.percentile(99.0);
        row.shareMeanPct =
            totalMean > 0.0 ? 100.0 * row.meanNs / totalMean : 0.0;
        rows.push_back(std::move(row));
    }
    return rows;
}

BottleneckVerdict
AnatomyCollector::verdict() const
{
    BottleneckVerdict v;
    v.completions = completions_.value();
    v.monotonicityViolations = monotonicityViolations_.value();
    v.residualViolations = residualViolations_.value();
    v.maxResidualNs = maxResidualNs_;
    if (v.completions == 0) {
        v.summary = "no completed transactions observed";
        return v;
    }

    const std::vector<AnatomyWaterfallRow> rows = waterfall();
    double totalMean = 0.0;
    double totalP99 = 0.0;
    for (const AnatomyWaterfallRow &r : rows) {
        totalMean += r.meanNs;
        totalP99 += r.p99Ns;
    }
    std::size_t meanIdx = 0;
    std::size_t p99Idx = 0;
    for (std::size_t i = 1; i < rows.size(); ++i) {
        if (rows[i].meanNs > rows[meanIdx].meanNs)
            meanIdx = i;
        if (rows[i].p99Ns > rows[p99Idx].p99Ns)
            p99Idx = i;
    }
    v.dominantMeanPhase = rows[meanIdx].phase;
    v.dominantMeanSharePct = rows[meanIdx].shareMeanPct;
    v.dominantP99Phase = rows[p99Idx].phase;
    // Stacked-p99 share: per-packet tail attribution is not retained,
    // so the p99 ranking compares each phase's own tail against the
    // others' -- a documented approximation of "which phase stretches
    // the p99".
    v.dominantP99SharePct =
        totalP99 > 0.0 ? 100.0 * rows[p99Idx].p99Ns / totalP99 : 0.0;

    v.chainFwdFloorNs = chainFloorNs_.mean();
    v.chainFwdExcessNs = chainExcessNs_.mean();
    const double queueNs =
        rows[static_cast<std::size_t>(AnatomyPhase::HostQueue)].meanNs +
        rows[static_cast<std::size_t>(AnatomyPhase::VaultQueue)].meanNs +
        rows[static_cast<std::size_t>(AnatomyPhase::RespInject)].meanNs +
        v.chainFwdExcessNs;
    if (totalMean > 0.0) {
        v.queueingSharePct = 100.0 * queueNs / totalMean;
        v.serviceSharePct = 100.0 - v.queueingSharePct;
    }

    std::ostringstream s;
    s << "dominant phase " << v.dominantMeanPhase << " ("
      << static_cast<int>(v.dominantMeanSharePct + 0.5)
      << "% of mean latency); tail driven by " << v.dominantP99Phase
      << " (" << static_cast<int>(v.dominantP99SharePct + 0.5)
      << "% of stacked phase p99); queueing "
      << static_cast<int>(v.queueingSharePct + 0.5) << "% vs service "
      << static_cast<int>(v.serviceSharePct + 0.5) << "%";
    if (v.chainFwdExcessNs > v.chainFwdFloorNs && v.chainFwdFloorNs > 0.0)
        s << "; chain forwarding is queue-dominated ("
          << static_cast<int>(v.chainFwdExcessNs + 0.5) << " ns excess over "
          << static_cast<int>(v.chainFwdFloorNs + 0.5) << " ns floor)";
    v.summary = s.str();
    return v;
}

CongestionRecorder::CongestionRecorder(Kernel &kernel,
                                       const MetricsRegistry &registry,
                                       Tick window,
                                       std::size_t max_windows)
    : kernel_(kernel), registry_(registry), window_(window),
      maxWindows_(max_windows)
{
    if (window_ == 0)
        fatal("CongestionRecorder: window must be > 0");
}

bool
CongestionRecorder::isOccupancyPath(const std::string &path)
{
    // The registry's occupancy gauges follow two naming conventions:
    // instantaneous queue depths end in "_now"; token/credit meters
    // end in "_in_use".  The anatomy engine's own metrics live under
    // "obs." and are excluded so the surface shows only fabric state.
    if (path.rfind("obs.", 0) == 0)
        return false;
    const auto ends_with = [&path](const char *suffix) {
        const std::size_t n = std::char_traits<char>::length(suffix);
        return path.size() >= n &&
               path.compare(path.size() - n, n, suffix) == 0;
    };
    return ends_with("_now") || ends_with("_in_use");
}

void
CongestionRecorder::start()
{
    if (started_)
        return;
    started_ = true;
    kernel_.scheduleIn(window_, [this] { fire(); });
}

void
CongestionRecorder::fire()
{
    if (windowStartNs_.size() >= maxWindows_) {
        if (!truncated_) {
            truncated_ = true;
            warn("CongestionRecorder: window cap reached (" +
                 std::to_string(maxWindows_) +
                 "); later windows dropped -- raise obs.anatomy_window_ns");
        }
        return;  // stop sampling and rescheduling
    }
    if (windowStartNs_.empty()) {
        // Freeze the component set at the first fire, even when it is
        // empty; by then the whole tree has registered.
        for (const std::string &p : registry_.paths())
            if (isOccupancyPath(p))
                paths_.push_back(p);
        series_.assign(paths_.size(), {});
    }
    // Look each path up per window: a replaced port re-registers its
    // gauge in place, so a cached entry could dangle.
    for (std::size_t i = 0; i < paths_.size(); ++i)
        series_[i].push_back(registry_.value(paths_[i]));
    windowStartNs_.push_back(ticksToNs(kernel_.now() - window_));
    kernel_.scheduleIn(window_, [this] { fire(); });
}

Heatmap
CongestionRecorder::toHeatmap() const
{
    std::vector<std::string> cols;
    cols.reserve(windowStartNs_.size());
    for (const double t : windowStartNs_) {
        std::ostringstream c;
        c << t << "ns";
        cols.push_back(c.str());
    }
    Heatmap hm(paths_, cols);
    for (std::size_t r = 0; r < series_.size(); ++r)
        for (std::size_t c = 0; c < series_[r].size(); ++c)
            hm.add(r, c, series_[r][c]);
    return hm;
}

std::string
CongestionRecorder::toCsv() const
{
    std::ostringstream os;
    os << "component";
    for (const double t : windowStartNs_)
        os << "," << t;
    os << "\n";
    for (std::size_t r = 0; r < paths_.size(); ++r) {
        os << paths_[r];
        for (const double v : series_[r])
            os << "," << v;
        os << "\n";
    }
    return os.str();
}

void
CongestionRecorder::emitCounterTracks(std::ostream &os, bool &first) const
{
    // Perfetto/Chrome counter events: one "C" sample per (track,
    // window).  ts is microseconds; window starts are already ns.
    for (std::size_t r = 0; r < paths_.size(); ++r) {
        for (std::size_t c = 0; c < series_[r].size(); ++c) {
            if (!first)
                os << ",\n";
            first = false;
            os << "  {\"ph\":\"C\",\"pid\":3,\"name\":\"" << paths_[r]
               << "\",\"ts\":" << windowStartNs_[c] / 1000.0
               << ",\"args\":{\"occupancy\":" << series_[r][c] << "}}";
        }
    }
    if (!paths_.empty()) {
        if (!first)
            os << ",\n";
        first = false;
        os << "  {\"ph\":\"M\",\"pid\":3,\"name\":\"process_name\","
              "\"args\":{\"name\":\"congestion\"}}";
    }
}

}  // namespace hmcsim
