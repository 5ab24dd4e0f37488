/**
 * @file
 * Latency anatomy: where did every nanosecond of a transaction go?
 *
 * Every HmcPacket carries a decomposition timeline
 * (createdAt -> linkTxAt -> chainIngressAt -> cubeArriveAt ->
 * vaultArriveAt -> dramStartAt -> dataReadyAt -> respInjectAt ->
 * respHostLinkAt -> hostArriveAt).  The AnatomyCollector folds that
 * timeline, once per completed transaction at response ejection, into
 * nine consecutive phases whose sum telescopes *exactly* to the
 * end-to-end latency:
 *
 *   host_queue      createdAt      -> linkTxAt       port FIFO, entry
 *                                                    arbitration, link
 *                                                    token wait
 *   link_serialize  linkTxAt       -> chainIngressAt entry link
 *                                                    serialization +
 *                                                    wire + SerDes
 *   chain_fwd_req   chainIngressAt -> cubeArriveAt   request-direction
 *                                                    chain forwarding
 *                                                    (0 when local)
 *   noc_request     cubeArriveAt   -> vaultArriveAt  cube-internal NoC
 *   vault_queue     vaultArriveAt  -> dramStartAt    vault input/bank
 *                                                    queue wait
 *   dram_service    dramStartAt    -> dataReadyAt    DRAM timing
 *   resp_inject     dataReadyAt    -> respInjectAt   backend + response
 *                                                    queue + NoC
 *                                                    admission
 *   resp_return     respInjectAt   -> respHostLinkAt NoC eject, return
 *                                                    chain forwarding,
 *                                                    link transits
 *   host_drain      respHostLinkAt -> hostArriveAt   host deserializer
 *                                                    + drain queue
 *
 * Per-phase Histograms (read/write separated) are registered in the
 * MetricsRegistry, plus lazily created per-(host, cube, vault,
 * read/write) breakdown samplers.  The collector also produces the
 * waterfall rows (count/mean/p50/p99/share) and an automated
 * bottleneck verdict: dominant phase by mean and by p99 share, a
 * queueing-vs-service split (chain forwarding is split against the
 * topology-derived per-hop floor), and the phase-conservation
 * residual.
 *
 * The CongestionRecorder samples every occupancy gauge in the registry
 * (paths ending in "_now" / "_in_use") on a fixed window, building
 * (component x time) surfaces: an analysis/Heatmap, a CSV, and
 * Perfetto counter tracks merged into the Chrome trace JSON.
 *
 * Everything here is observation-only: the collector and recorder read
 * packet fields and registry gauges, never simulation state.
 * `obs.anatomy=off` (default) constructs nothing.
 */

#ifndef HMCSIM_OBS_ANATOMY_H_
#define HMCSIM_OBS_ANATOMY_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "analysis/heatmap.h"
#include "common/histogram.h"
#include "common/stats.h"
#include "common/types.h"
#include "hmc/packet.h"
#include "obs/metrics.h"
#include "obs/obs_config.h"
#include "sim/kernel.h"

namespace hmcsim {

/** The nine consecutive latency phases (see file header). */
enum class AnatomyPhase : std::uint8_t {
    HostQueue,
    LinkSerialize,
    ChainFwdReq,
    NocRequest,
    VaultQueue,
    DramService,
    RespInject,
    RespReturn,
    HostDrain,
};

constexpr std::size_t kNumAnatomyPhases = 9;

const char *toString(AnatomyPhase p);

/** One packet's timeline folded into phase durations. */
struct PhaseBreakdown {
    std::array<Tick, kNumAnatomyPhases> phase{};
    Tick endToEnd = 0;
    /** |sum(phases) - endToEnd|; exactly 0 for a well-formed stamp
     *  chain (the phases telescope). */
    Tick residual = 0;
    /** False when a stamped timestamp ran backwards. */
    bool monotone = true;
    bool write = false;

    Tick
    sum() const
    {
        Tick s = 0;
        for (const Tick t : phase)
            s += t;
        return s;
    }

    /**
     * Fold @p resp (a response at ejection; its timestamps are the
     * request's plus the response legs).  Unstamped (zero) timestamps
     * contribute a zero-length phase and fold into the next one;
     * backward stamps clamp and clear `monotone`.
     */
    static PhaseBreakdown fromPacket(const HmcPacket &resp);
};

/** One row of the per-phase waterfall table. */
struct AnatomyWaterfallRow {
    std::string phase;
    std::uint64_t count = 0;
    double meanNs = 0.0;
    double p50Ns = 0.0;
    double p99Ns = 0.0;
    /** Phase share of the summed mean latency, percent. */
    double shareMeanPct = 0.0;
};

/** The automated bottleneck attribution. */
struct BottleneckVerdict {
    /** Largest phase by share of total mean latency. */
    std::string dominantMeanPhase;
    double dominantMeanSharePct = 0.0;
    /** Largest phase p99 (share of the stacked per-phase p99s). */
    std::string dominantP99Phase;
    double dominantP99SharePct = 0.0;
    /** Queueing phases (host_queue, vault_queue, resp_inject, and the
     *  chain-forward excess over the per-hop floor) vs everything
     *  else, as shares of total mean latency. */
    double queueingSharePct = 0.0;
    double serviceSharePct = 0.0;
    /** Mean chain-forward split: measured = floor + excess. */
    double chainFwdFloorNs = 0.0;
    double chainFwdExcessNs = 0.0;
    std::uint64_t completions = 0;
    std::uint64_t monotonicityViolations = 0;
    std::uint64_t residualViolations = 0;
    double maxResidualNs = 0.0;
    /** One-line human-readable conclusion. */
    std::string summary;
};

class AnatomyCollector
{
  public:
    /** Breakdown key: where the transaction went, and what it was. */
    struct Key {
        HostId host = 0;
        CubeId cube = 0;
        VaultId vault = 0;
        bool write = false;

        bool
        operator<(const Key &o) const
        {
            if (host != o.host)
                return host < o.host;
            if (cube != o.cube)
                return cube < o.cube;
            if (vault != o.vault)
                return vault < o.vault;
            return write < o.write;
        }
    };

    using KeyStats = std::array<SampleStats, kNumAnatomyPhases>;

    /**
     * @param reg registry the per-phase histograms and breakdown
     *            samplers are registered into (never null: anatomy
     *            implies metrics)
     */
    AnatomyCollector(const ObsConfig &cfg, MetricsRegistry *reg);
    ~AnatomyCollector();

    AnatomyCollector(const AnatomyCollector &) = delete;
    AnatomyCollector &operator=(const AnatomyCollector &) = delete;

    /**
     * Topology-derived per-hop chain-forwarding floor: the latency a
     * hop costs with empty queues.  Used for the queueing-vs-service
     * split of the chain_fwd_req phase.  Zero (default) treats all
     * chain forwarding as service.
     */
    void setChainHopFloor(Tick per_hop_fixed, Tick per_flit);

    /** Fold one completed transaction (response at ejection). */
    void onComplete(const HmcPacket &resp);

    /** Drop all accumulated data (e.g. after a warmup window). */
    void reset();

    std::uint64_t completions() const { return completions_.value(); }
    std::uint64_t
    monotonicityViolations() const
    {
        return monotonicityViolations_.value();
    }
    std::uint64_t
    residualViolations() const
    {
        return residualViolations_.value();
    }
    double maxResidualNs() const { return maxResidualNs_; }

    /** Per-phase histogram; @p write selects the write-path set. */
    const Histogram &phaseHist(AnatomyPhase p, bool write) const;
    const Histogram &endToEndHist(bool write) const;

    /** Per-phase streaming stats over reads+writes combined. */
    const SampleStats &phaseStats(AnatomyPhase p) const;

    /** Lazily grown per-(host, cube, vault, read/write) breakdown. */
    const std::map<Key, KeyStats> &breakdown() const { return keys_; }

    /** Waterfall rows over reads+writes, ordered by phase. */
    std::vector<AnatomyWaterfallRow> waterfall() const;

    /** The automated bottleneck attribution over everything seen. */
    BottleneckVerdict verdict() const;

  private:
    MetricsRegistry *reg_;
    MetricSet metrics_;
    double histHiNs_;
    std::size_t histBins_;

    Tick hopFixed_ = 0;
    Tick hopPerFlit_ = 0;

    /** [write][phase] latency histograms, ns. */
    std::vector<Histogram> hist_[2];
    std::unique_ptr<Histogram> e2e_[2];
    std::array<SampleStats, kNumAnatomyPhases> stats_;
    SampleStats e2eStats_;
    SampleStats chainFloorNs_;
    SampleStats chainExcessNs_;
    Counter completions_;
    Counter monotonicityViolations_;
    Counter residualViolations_;
    double maxResidualNs_ = 0.0;

    std::map<Key, KeyStats> keys_;

    KeyStats &keyStats(const Key &k);
};

/**
 * Time-windowed congestion recorder: every @p window ticks it reads
 * the occupancy gauges out of the registry (paths ending in "_now" or
 * "_in_use": link tokens, switch forward queues, vault queues) and
 * appends one column to a (component x time) surface.
 */
class CongestionRecorder
{
  public:
    CongestionRecorder(Kernel &kernel, const MetricsRegistry &registry,
                       Tick window, std::size_t max_windows = 4096);

    /** Begin periodic recording; idempotent. */
    void start();

    /** True for registry paths the recorder samples. */
    static bool isOccupancyPath(const std::string &path);

    std::size_t windows() const { return windowStartNs_.size(); }
    const std::vector<std::string> &paths() const { return paths_; }
    /** True when max_windows was hit and later windows were dropped. */
    bool truncated() const { return truncated_; }

    /** (component x time) occupancy surface; cells are raw readings. */
    Heatmap toHeatmap() const;

    /** CSV: component,<t0 ns>,<t1 ns>,... with raw readings. */
    std::string toCsv() const;

    /**
     * Emit one Perfetto counter-track event per (path, window) into a
     * Chrome trace_event stream.  @p first is the caller's
     * comma-tracking flag across merged emitters.
     */
    void emitCounterTracks(std::ostream &os, bool &first) const;

  private:
    Kernel &kernel_;
    const MetricsRegistry &registry_;
    Tick window_;
    std::size_t maxWindows_;
    bool started_ = false;
    bool truncated_ = false;
    /** Sampled paths, frozen at the first fire. */
    std::vector<std::string> paths_;
    /** series_[path index][window index]. */
    std::vector<std::vector<double>> series_;
    std::vector<double> windowStartNs_;

    void fire();
};

}  // namespace hmcsim

#endif  // HMCSIM_OBS_ANATOMY_H_
