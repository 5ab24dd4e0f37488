#include "workloads.h"

#include <cmath>
#include <memory>

#include "common/histogram.h"
#include "common/rng.h"
#include "common/units.h"
#include "host/system.h"
#include "obs/anatomy.h"
#include "stats.h"

namespace perfbench {

using namespace hmcsim;

namespace {

/** The paper's anchors (Section IV): Fig. 6 peak bandwidth at 128 B
 *  and the Fig. 7 read latency of 128 B requests at 55 in flight. */
constexpr double kPaperPeakGBs = 23.0;
constexpr double kPaperFig7LatencyNs = 2200.0;

/** Latency histograms: 10 ns bins up to 50 us. */
constexpr double kHistHiNs = 50000.0;
constexpr std::size_t kHistBins = 5000;

std::vector<Workload>
makeWorkloads()
{
    std::vector<Workload> ws;

    Workload g;
    g.name = "gups128_cube1";
    g.keys = {{"host.workload", "gups"},
              {"host.workload.request_bytes", "128"}};
    g.ports = 9;
    g.warmup = 20 * kMicrosecond;
    g.window = 400 * kMicrosecond;
    g.slices = 8;
    g.anchor = Anchor::Bandwidth;
    g.paperValue = kPaperPeakGBs;
    ws.push_back(g);

    Workload s;
    s.name = "stream128_vault0";
    s.keys = {{"host.workload", "trace"},
              {"host.workload.request_bytes", "128"},
              {"host.workload.vaults", "1"},
              {"host.workload.base_vault", "0"},
              {"host.workload.batch", "55"},
              {"obs.anatomy", "on"}};
    s.ports = 1;
    s.warmup = 20 * kMicrosecond;
    s.window = 800 * kMicrosecond;
    s.slices = 8;
    s.anchor = Anchor::ReadLatency;
    s.paperValue = kPaperFig7LatencyNs;
    ws.push_back(s);

    Workload r;
    r.name = "ring8_rw64";
    r.keys = {{"hmc.num_cubes", "8"},
              {"hmc.chain_topology", "ring"},
              {"hmc.power_enabled", "false"},
              {"host.workload", "gups"},
              {"host.workload.request_bytes", "64"},
              {"host.workload.write_fraction", "0.25"}};
    r.ports = 9;
    r.warmup = 10 * kMicrosecond;
    r.window = 80 * kMicrosecond;
    r.slices = 8;
    r.anchor = Anchor::Fig7Probe;
    r.paperValue = kPaperFig7LatencyNs;
    ws.push_back(r);
    return ws;
}

/** Requests served per (cube, vault) in the window. */
std::vector<std::vector<std::uint64_t>>
servedPerVault(System &sys)
{
    std::vector<std::vector<std::uint64_t>> out;
    for (CubeId c = 0; c < sys.numCubes(); ++c) {
        HmcDevice &dev = sys.device(c);
        out.emplace_back();
        for (VaultId v = 0; v < dev.numVaults(); ++v)
            out.back().push_back(dev.vaultController(v).requestsServed());
    }
    return out;
}

/** Merged read-latency histogram of every active port. */
std::unique_ptr<Histogram>
mergedLatency(System &sys)
{
    std::unique_ptr<Histogram> merged;
    for (HostId h = 0; h < sys.numHosts(); ++h) {
        for (PortId p = 0; p < sys.fpga(h).numPorts(); ++p) {
            const Histogram *hist = sys.portAt(h, p).monitor().histogram();
            if (!hist)
                continue;
            if (!merged)
                merged = std::make_unique<Histogram>(hist->lo(), hist->hi(),
                                                     hist->bins());
            merged->merge(*hist);
        }
    }
    return merged;
}

}  // namespace

Config
Workload::config(std::uint64_t seed) const
{
    Config cfg;
    for (const auto &[key, value] : keys)
        cfg.set(key, value);
    cfg.setU64("host.workload_ports", ports);
    for (PortId p = 0; p < ports; ++p)
        cfg.setU64("host.port" + std::to_string(p) + ".workload.seed",
                   portSeed(seed, p));
    return cfg;
}

std::uint64_t
portSeed(std::uint64_t benchSeed, PortId port)
{
    // A zero WorkloadSpec seed means "derive from host.seed", which
    // would ignore the benchmark seed; remap it.
    const std::uint64_t s = mixSeeds(benchSeed, port);
    return s != 0 ? s : 1;
}

const std::vector<Workload> &
allWorkloads()
{
    static const std::vector<Workload> ws = makeWorkloads();
    return ws;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : allWorkloads()) {
        if (w.name == name)
            return &w;
    }
    return nullptr;
}

Workload
fig7Probe(const Workload &base)
{
    Workload probe = *findWorkload("stream128_vault0");
    probe.name = base.name + "_fig7_probe";
    // The probe runs on base's system: keep every hmc.* / sim.* key,
    // replace the traffic and drop the anatomy observer.
    for (const auto &[key, value] : base.keys) {
        if (key.rfind("hmc.", 0) == 0 || key.rfind("sim.", 0) == 0)
            probe.keys[key] = value;
    }
    probe.keys.erase("obs.anatomy");
    probe.window = 200 * kMicrosecond;
    probe.slices = 1;
    probe.anchor = Anchor::ReadLatency;
    return probe;
}

void
enableLatencyHistograms(System &sys)
{
    for (HostId h = 0; h < sys.numHosts(); ++h) {
        for (PortId p = 0; p < sys.fpga(h).numPorts(); ++p) {
            if (sys.portAt(h, p).active())
                sys.portAt(h, p).monitor().enableHistogram(0.0, kHistHiNs,
                                                           kHistBins);
        }
    }
}

std::map<std::string, double>
simulatedStats(std::map<std::string, double> stats, System &sys,
               const ExperimentResult &r, std::uint64_t windowEvents)
{
    std::map<std::string, double> m = std::move(stats);
    auto put = [&m](const std::string &k, double v) { m["result." + k] = v; };
    put("window_ticks", static_cast<double>(r.windowTicks));
    put("total_reads", static_cast<double>(r.totalReads));
    put("total_writes", static_cast<double>(r.totalWrites));
    put("total_wire_bytes", static_cast<double>(r.totalWireBytes));
    put("bandwidth_gbs", r.bandwidthGBs);
    put("avg_read_latency_ns", r.avgReadLatencyNs);
    put("min_read_latency_ns", r.minReadLatencyNs);
    put("max_read_latency_ns", r.maxReadLatencyNs);
    put("stddev_read_latency_ns", r.stddevReadLatencyNs);
    put("p99_read_latency_ns", r.p99ReadLatencyNs);
    put("avg_chain_hops", r.avgChainHops);
    put("total_chain_transit_flits",
        static_cast<double>(r.totalChainTransitFlits));
    put("chain_bisection_flits", static_cast<double>(r.chainBisectionFlits));
    put("total_adaptive_deviations",
        static_cast<double>(r.totalAdaptiveDeviations));
    put("total_chain_misroutes", static_cast<double>(r.totalChainMisroutes));
    put("total_rx_hol_stalls", static_cast<double>(r.totalRxHolStalls));
    put("energy_pj", r.energyPj);
    put("avg_power_w", r.avgPowerW);
    put("max_temp_c", r.maxTempC);
    put("throttle_pct", r.throttlePct);
    for (const PortStats &p : r.ports) {
        const std::string k = "host" + std::to_string(p.host) + ".port" +
            std::to_string(p.port) + ".";
        put(k + "reads", static_cast<double>(p.reads));
        put(k + "writes", static_cast<double>(p.writes));
        put(k + "wire_bytes", static_cast<double>(p.wireBytes));
        put(k + "avg_read_ns", p.avgReadNs);
    }
    for (const HostStats &h : r.hosts) {
        const std::string k = "host" + std::to_string(h.host) + ".";
        put(k + "requests_sent", static_cast<double>(h.requestsSent));
        put(k + "responses_delivered",
            static_cast<double>(h.responsesDelivered));
    }
    for (const CubeStats &c : r.cubes) {
        const std::string k = "cube" + std::to_string(c.cube) + ".";
        put(k + "requests_served", static_cast<double>(c.requestsServed));
        put(k + "requests_sent", static_cast<double>(c.requestsSent));
        put(k + "peak_outstanding", static_cast<double>(c.peakOutstanding));
        put(k + "energy_pj", c.energyPj);
    }
    for (std::size_t i = 0; i < r.chainHopCounts.size(); ++i)
        put("chain_hop_count" + std::to_string(i),
            static_cast<double>(r.chainHopCounts[i]));
    if (const AnatomyCollector *a = sys.obs() ? sys.obs()->anatomy()
                                              : nullptr) {
        m["anatomy.completions"] = static_cast<double>(a->completions());
        for (std::size_t i = 0; i < kNumAnatomyPhases; ++i) {
            const auto p = static_cast<AnatomyPhase>(i);
            m[std::string("anatomy.") + toString(p) + "_mean_ns"] =
                a->phaseStats(p).mean();
        }
    }
    if (const auto lat = mergedLatency(sys)) {
        const double tail = tailPercentile(lat->total());
        m["latency.samples"] = static_cast<double>(lat->total());
        m["latency.p50_ns"] = lat->percentile(50.0);
        m["latency.tail_pct"] = tail;
        m["latency.tail_ns"] = tail > 0.0 ? lat->percentile(tail) : 0.0;
    }
    m["kernel.window_events"] = static_cast<double>(windowEvents);
    return m;
}

std::string
checkWindow(System &sys, const ExperimentResult &r)
{
    if (r.totalReads == 0)
        return "no reads completed in the window";
    if (!(r.bandwidthGBs > 0.0) || !std::isfinite(r.avgReadLatencyNs))
        return "bandwidth or latency not a positive finite number";
    // A chained workload must leave cube 0: transit traffic on the
    // cube-to-cube fabric and requests served by every cube.
    if (sys.numCubes() > 1) {
        if (r.totalChainTransitFlits == 0)
            return "no chain transit flits: traffic never left cube 0";
        for (const CubeStats &c : r.cubes) {
            if (c.requestsServed == 0)
                return "cube " + std::to_string(c.cube) +
                    " served no requests";
        }
    }

    // Every port of a workload shares the host.workload* traffic shape.
    const SystemConfig &sc = sys.config();
    const WorkloadSpec &spec = sc.host.portWorkloads.empty()
        ? sc.host.workload
        : sc.host.portWorkloads.front().spec;
    const bool wantWrites = spec.writeFraction > 0.0;
    if (wantWrites != (r.totalWrites > 0))
        return wantWrites ? "no writes completed" : "unexpected writes";

    // Vault coverage: every vault of the pattern's confinement (in every
    // cube) serves requests, and no other vault does.
    const auto served = servedPerVault(sys);
    for (CubeId c = 0; c < served.size(); ++c) {
        for (VaultId v = 0; v < served[c].size(); ++v) {
            const bool shouldServe = v >= spec.baseVault &&
                v < spec.baseVault + spec.patternVaults;
            if (shouldServe != (served[c][v] > 0))
                return "cube " + std::to_string(c) + " vault " +
                    std::to_string(v) +
                    (shouldServe ? " served no requests"
                                 : " served requests outside the pattern");
        }
    }

    if (const AnatomyCollector *a = sys.obs() ? sys.obs()->anatomy()
                                              : nullptr) {
        if (a->completions() == 0)
            return "anatomy recorded no completions";
        if (a->monotonicityViolations() != 0 || a->residualViolations() != 0)
            return "anatomy phases do not telescope to the end-to-end "
                   "latency";
    }
    return "";
}

}  // namespace perfbench
