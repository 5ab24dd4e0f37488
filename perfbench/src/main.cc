/**
 * @file
 * hmcbench: runs one benchmark workload and writes its result file.
 *
 *   hmcbench --workload NAME --seed N --seconds S --trace 0|1
 *            --out RESULT.json [--spans SPANS.json]
 *            [--commit SHA] [--source-digest HEX]
 *
 * Untraced (--trace 0): repeats set-up + warm-up + a fixed simulated
 * window until S host seconds have passed and reports the end-to-end
 * metrics (medians over repetitions, host time normalized by the
 * reference kernels timed around each repetition).  Traced
 * (--trace 1): the same repetitions alternate with and without span
 * recording (the difference is the tracing overhead), then every
 * layer is driven through its public API and the config ablations
 * run; reports the per-layer metrics and writes the span file.
 *
 * Every repetition's simulated statistics are digested; all digests of
 * one seed must agree, or the run is not correct.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/report.h"
#include "common/log.h"
#include "host/system.h"
#include "layers.h"
#include "obs/anatomy.h"
#include "reference.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

using namespace hmcsim;
using namespace perfbench;

namespace {

#ifndef HMCBENCH_BUILD_TYPE
#define HMCBENCH_BUILD_TYPE "unknown"
#endif
#ifndef HMCBENCH_COMPILER
#define HMCBENCH_COMPILER "unknown"
#endif

/** Requests drawn from the workload's source for the layer timings. */
constexpr std::size_t kLayerRequests = 100000;
/** The NoC timing simulates every request: keep its batches short. */
constexpr std::size_t kNocRequests = 20000;
/** Repetition pairs per config ablation. */
constexpr int kAblationPairs = 3;
/** Fewest measured repetitions, whatever --seconds says. */
constexpr int kMinReps = 3;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    /** Host seconds to measure; required, run.py owns the default. */
    double seconds = 0.0;
    bool trace = false;
    std::string out;
    std::string spans;
    std::string commit = "unknown";
    std::string sourceDigest = "unknown";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "hmcbench: " << why
              << "\nusage: hmcbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --out FILE [--spans FILE] [--commit SHA] "
                 "[--source-digest HEX]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + k);
        const std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::atof(v.c_str());
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--out")
            a.out = v;
        else if (k == "--spans")
            a.spans = v;
        else if (k == "--commit")
            a.commit = v;
        else if (k == "--source-digest")
            a.sourceDigest = v;
        else
            usage("unknown argument " + k);
    }
    if (a.workload.empty() || a.out.empty())
        usage("--workload and --out are required");
    if (!(a.seconds > 0.0))
        usage("--seconds is required and must be positive");
    return a;
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/** Full-precision JSON number (non-finite values become null). */
std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
str(const std::string &s)
{
    return "\"" + jsonEscape(s) + "\"";
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(" \t", colon + 1));
        }
    }
    return "unknown";
}

/** Peak resident memory of the process so far, MB. */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0;
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
        s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/** Sum of every stat whose key starts with @p prefix and ends with
 *  @p suffix. */
double
sumStats(const std::map<std::string, double> &m, const std::string &suffix,
         const std::string &prefix = "")
{
    double s = 0.0;
    for (const auto &[k, v] : m) {
        if (k.rfind(prefix, 0) == 0 && endsWith(k, suffix))
            s += v;
    }
    return s;
}

double
maxStats(const std::map<std::string, double> &m, const std::string &suffix)
{
    double s = 0.0;
    for (const auto &[k, v] : m) {
        if (endsWith(k, suffix))
            s = std::max(s, v);
    }
    return s;
}

/** One repetition: set-up, warm-up, measured window, checks. */
struct Rep {
    /** Wall-clock host times. */
    double setupSec = 0.0;
    double windowSec = 0.0;
    double simUsPerS = 0.0;
    /** Reference kernel times, each the mean of a run before set-up
     *  and one after tear-down, while no System is alive: both kernels
     *  together (for the window) and the small one (for the set-up). */
    double refSec = 0.0;
    double refSetupSec = 0.0;
    /** Both kernels' run after tear-down alone: what this
     *  repetition's config leaves behind for the next one. */
    double refAfterSec = 0.0;
    /** The host times normalized by the reference kernels. */
    double normSetupSec = 0.0;
    double normSimUsPerS = 0.0;
    double collectMs = 0.0;
    double statsMs = 0.0;
    std::string digest;
    /** Empty when the window passed the workload's check. */
    std::string failure;
    ExperimentResult result;
    std::map<std::string, double> sim;
};

Rep
runRep(const Workload &w, const Config &cfg, SpanRecorder &rec, int group)
{
    SpanRecorder::Scope rep(rec, "rep:" + w.name, -1, group);
    Rep out;
    {
        SpanRecorder::Scope s(rec, "reference_kernel", rep.id(), group);
        out.refSetupSec = referenceKernelSeconds(kSmallTableBytes);
        out.refSec =
            out.refSetupSec + referenceKernelSeconds(kLargeTableBytes);
    }
    const auto t0 = std::chrono::steady_clock::now();
    std::unique_ptr<System> sys;
    {
        SpanRecorder::Scope s(rec, "system_construct", rep.id(), group);
        sys = std::make_unique<System>(SystemConfig::fromConfig(cfg));
    }
    {
        SpanRecorder::Scope s(rec, "port_configure", rep.id(), group);
        enableLatencyHistograms(*sys);
    }
    out.setupSec = secondsSince(t0);
    {
        SpanRecorder::Scope s(rec, "warmup", rep.id(), group);
        sys->run(w.warmup);
        if (sys->obs() && sys->obs()->anatomy())
            sys->obs()->anatomy()->reset();
        sys->resetStats();
    }
    const std::uint64_t ev0 = sys->kernel().eventsExecuted();
    const Tick slice = w.window / w.slices;
    const Tick window = slice * w.slices;
    for (std::uint32_t i = 0; i < w.slices; ++i) {
        SpanRecorder::Scope s(rec, "window_slice", rep.id(), group);
        const auto ts = std::chrono::steady_clock::now();
        sys->run(slice);
        out.windowSec += secondsSince(ts);
    }
    const std::uint64_t events = sys->kernel().eventsExecuted() - ev0;
    out.simUsPerS = static_cast<double>(window) / kMicrosecond /
        out.windowSec;
    {
        SpanRecorder::Scope s(rec, "collectResult", rep.id(), group);
        const auto ts = std::chrono::steady_clock::now();
        out.result = collectResult(*sys, window);
        out.collectMs = secondsSince(ts) * 1e3;
    }
    std::map<std::string, double> stats;
    {
        SpanRecorder::Scope s(rec, "stats", rep.id(), group);
        const auto ts = std::chrono::steady_clock::now();
        stats = sys->stats();
        out.statsMs = secondsSince(ts) * 1e3;
    }
    out.sim = simulatedStats(std::move(stats), *sys, out.result, events);
    out.failure = checkWindow(*sys, out.result);
    out.digest = digest(out.sim);
    {
        SpanRecorder::Scope s(rec, "system_destroy", rep.id(), group);
        sys.reset();
    }
    {
        SpanRecorder::Scope s(rec, "reference_kernel", rep.id(), group);
        const double small = referenceKernelSeconds(kSmallTableBytes);
        out.refAfterSec = small + referenceKernelSeconds(kLargeTableBytes);
        out.refSetupSec = 0.5 * (out.refSetupSec + small);
        out.refSec = 0.5 * (out.refSec + out.refAfterSec);
    }
    out.normSimUsPerS = out.simUsPerS * out.refSec / kWindowNominalSec;
    out.normSetupSec = out.setupSec * kSetupNominalSec / out.refSetupSec;
    return out;
}

/** Config @p base with @p key overridden. */
Config
with(Config base, const std::string &key, const std::string &value)
{
    base.set(key, value);
    return base;
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

/** Repetitions of a measurement phase plus their verdict. */
struct Phase {
    std::vector<Rep> reps;
    int failed = 0;
    std::vector<std::string> failures;

    /** Fold @p r in, checking its digest against @p reference (when
     *  one is given). */
    void
    add(Rep r, const std::string &reference)
    {
        if (r.failure.empty() && !reference.empty() && r.digest != reference)
            r.failure = "digest " + r.digest + " differs from " + reference;
        if (!r.failure.empty()) {
            ++failed;
            failures.push_back(r.failure);
        }
        reps.push_back(std::move(r));
    }

    std::vector<double>
    values(double Rep::*field) const
    {
        std::vector<double> v;
        for (const Rep &r : reps)
            v.push_back(r.*field);
        return v;
    }
};

/** One config ablation's repetitions, per config. */
struct Ablation {
    std::string name;
    /** Median normalized sim_us_per_s. */
    double speedA = 0.0, speedB = 0.0;
    /** Reference kernel time (both kernels) after each repetition's
     *  tear-down, ms: it must not follow the config. */
    std::vector<double> refMsA, refMsB;
};

/**
 * Alternate @p pairs repetitions of configs @p a and @p b.  Every a
 * rep must reproduce digest @p refA and every b rep @p refB (or, when
 * that is empty, the first b rep's).  @return the median normalized
 * sim_us_per_s of a and of b, and every repetition's reference kernel
 * time after tear-down.
 */
Ablation
ablate(const Workload &w, const Config &a, const Config &b, int pairs,
       SpanRecorder &rec, const std::string &name, Phase &phase,
       const std::string &refA, const std::string &refB)
{
    SpanRecorder::Scope s(rec, "ablation:" + name);
    std::vector<double> va, vb, ka, kb;
    SpanRecorder off(false);
    std::string ref = refB;
    for (int i = 0; i < pairs; ++i) {
        Rep ra = runRep(w, a, off, -1);
        va.push_back(ra.normSimUsPerS);
        ka.push_back(ra.refAfterSec * 1e3);
        phase.add(std::move(ra), refA);
        Rep rb = runRep(w, b, off, -1);
        vb.push_back(rb.normSimUsPerS);
        kb.push_back(rb.refAfterSec * 1e3);
        if (ref.empty())
            ref = rb.digest;
        phase.add(std::move(rb), ref);
    }
    return {name, median(va), median(vb), ka, kb};
}

std::string
provenanceJson(const Args &args, const Config &cfg, const Workload &w)
{
    Config eff;
    SystemConfig::fromConfig(cfg).toConfig(eff);
    std::ostringstream os;
    os << "{\"commit\": " << str(args.commit)
       << ", \"source_digest\": " << str(args.sourceDigest)
       << ", \"workload\": " << str(w.name) << ", \"seed\": " << args.seed
       << ", \"port_seeds\": [";
    for (PortId p = 0; p < w.ports; ++p)
        os << (p ? ", " : "") << portSeed(args.seed, p);
    os << "], \"build_type\": " << str(HMCBENCH_BUILD_TYPE)
       << ", \"compiler\": " << str(HMCBENCH_COMPILER)
       << ", \"cpu_model\": " << str(cpuModel())
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"effective_config\": " << str(eff.toString()) << "}";
    return os.str();
}

}  // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const Workload *wp = findWorkload(args.workload);
    if (!wp)
        usage("unknown workload " + args.workload);
    const Workload &w = *wp;
    Logger::setLevel(LogLevel::Warn);

    const Config cfg = w.config(args.seed);
    SpanRecorder rec(args.trace);
    SpanRecorder untraced(false);

    // ----- measured repetitions -----
    Phase measured;
    const auto start = std::chrono::steady_clock::now();
    std::vector<double> tracedSpeed, untracedSpeed;
    // Memory of one whole simulation, read after the first repetition:
    // the allocator's footprint keeps creeping over later repetitions,
    // which would tie the figure to how many fit in --seconds.  The
    // reference kernels' tables stay resident from their first run on
    // and are not the simulator's, so they are taken out.
    double rssMb = 0.0;
    const double referenceTablesMb =
        static_cast<double>(kSmallTableBytes + kLargeTableBytes) /
        (1024.0 * 1024.0);
    for (int i = 0; i < kMinReps || secondsSince(start) < args.seconds; ++i) {
        // The traced run alternates span recording on and off; the two
        // medians give the tracing overhead.
        const bool traced = args.trace && i % 2 == 0;
        Rep r = runRep(w, cfg, traced ? rec : untraced, i);
        (traced ? tracedSpeed : untracedSpeed).push_back(r.normSimUsPerS);
        measured.add(std::move(r), measured.reps.empty()
                                       ? ""
                                       : measured.reps[0].digest);
        if (i == 0)
            rssMb = peakRssMb() - referenceTablesMb;
    }
    const Rep &first = measured.reps.front();

    // ----- the paper anchor -----
    double anchorValue = 0.0;
    std::map<std::string, double> sim = first.sim;
    Phase probePhase;
    if (w.anchor == Anchor::Fig7Probe) {
        const Workload probe = fig7Probe(w);
        SpanRecorder::Scope s(rec, "fig7_probe");
        SpanRecorder off(false);
        probePhase.add(runRep(probe, probe.config(args.seed), off, -1), "");
        const Rep &pr = probePhase.reps.front();
        anchorValue = pr.result.avgReadLatencyNs;
        for (const auto &[k, v] : pr.sim)
            sim["probe." + k] = v;
    } else if (w.anchor == Anchor::Bandwidth) {
        anchorValue = first.result.bandwidthGBs;
    } else {
        anchorValue = first.result.avgReadLatencyNs;
    }
    const double paperErrPct =
        100.0 * std::abs(anchorValue - w.paperValue) / w.paperValue;

    const double windowUs = static_cast<double>(first.result.windowTicks) /
        kMicrosecond;
    const double windowWallSec = median(measured.values(&Rep::windowSec));
    const double simUsPerS = median(measured.values(&Rep::normSimUsPerS));
    const double wallSimUsPerS = median(measured.values(&Rep::simUsPerS));
    const double refMs = median(measured.values(&Rep::refSec)) * 1e3;
    const Quartiles speedQ = quartiles(measured.values(&Rep::normSimUsPerS));

    std::vector<Metric> metrics;
    std::map<std::string, double> selfSec;
    Phase ablations;
    std::vector<Ablation> ablationRuns;
    if (!args.trace) {
        metrics = {
            {"sim_us_per_s", simUsPerS, "sim_us/s"},
            {"setup_s", median(measured.values(&Rep::normSetupSec)), "s"},
            {"peak_rss_mb", rssMb, "MB"},
            {"paper_err_pct", paperErrPct, "%"},
        };
    } else {
        const SystemConfig sc = SystemConfig::fromConfig(cfg);
        const std::map<std::string, double> &m = first.sim;
        auto perUs = [&](double v) { return v / windowUs; };

        // ----- per-layer timings -----
        const SpanRecorder::SpanId layers = rec.begin("layer_timings", -1, -1);
        SourceSample src;
        NocSample noc;
        double decodeNs = 0, dramNs = 0, routeNs = 0, eventNs = 0;
        {
            SpanRecorder::Scope s(rec, "layer:host.source", layers);
            src = driveSource(sc, kLayerRequests);
        }
        {
            SpanRecorder::Scope s(rec, "layer:hmc.decode", layers);
            decodeNs = driveDecode(sc, src.requests);
        }
        {
            SpanRecorder::Scope s(rec, "layer:dram.service", layers);
            dramNs = driveDramService(sc, src.requests);
        }
        {
            SpanRecorder::Scope s(rec, "layer:noc.network", layers);
            noc = driveNoc(sc, std::vector<WorkloadRequest>(
                                     src.requests.begin(),
                                     src.requests.begin() + kNocRequests));
        }
        {
            SpanRecorder::Scope s(rec, "layer:chain.route", layers);
            routeNs = driveChainRoute(sc, src.requests);
        }
        {
            SpanRecorder::Scope s(rec, "layer:sim.kernel", layers);
            eventNs = driveKernel(sc, perUs(m.at("kernel.window_events")));
        }
        rec.end(layers);
        const double collectMs = median(measured.values(&Rep::collectMs));
        const double statsMs = median(measured.values(&Rep::statsMs));

        // Attribution: each layer's operation count in the window times
        // its driven cost, over the window's wall time.  The decode
        // count, three per served request (device routing, vault
        // arrival, DRAM access build), is a lower bound: a vault
        // decodes again on every head-of-line retry of a blocked bank
        // queue and on every FR-FCFS scan, and no statistic counts
        // those, so attributed_pct is understated most where bank
        // queues block (stream128_vault0).  The NoC's cost includes
        // its own kernel events, so the kernel is charged only for the
        // rest.
        const double vaultServed = sumStats(m, ".requests_served", "system.");
        const double nocMsgs = sumStats(m, ".noc.messages_delivered");
        const double otherEvents = std::max(
            0.0, m.at("kernel.window_events") - noc.eventsPerMsg * nocMsgs);
        const double routes = sumStats(m, ".fwd.route_down") +
            sumStats(m, ".fwd.route_up") + sumStats(m, ".fwd.route_wrap") +
            sumStats(m, ".fwd.route_host");
        const double attributedNs =
            sumStats(m, ".issued") * src.nsPerReq +
            3.0 * vaultServed * decodeNs +
            (sumStats(m, ".mem.row_hits") + sumStats(m, ".mem.row_misses")) *
                dramNs +
            nocMsgs * noc.nsPerMsg + routes * routeNs +
            otherEvents * eventNs +
            (collectMs + statsMs) * 1e6;
        const double attributedPct = 100.0 * attributedNs /
            (windowWallSec * 1e9);

        // ----- config ablations -----
        double anatomyPct = 0.0, powerPct = 0.0, speedup = 0.0;
        const std::string ref = first.digest;
        if (cfg.getBool("obs.anatomy", false)) {
            const Ablation &a = ablationRuns.emplace_back(
                ablate(w, cfg, with(cfg, "obs.anatomy", "off"),
                       kAblationPairs, rec, "obs.anatomy", ablations, ref, ""));
            anatomyPct = 100.0 * (1.0 - a.speedA / a.speedB);
        }
        if (cfg.getBool("hmc.power_enabled", true)) {
            const Ablation &a = ablationRuns.emplace_back(ablate(
                w, cfg, with(cfg, "hmc.power_enabled", "false"),
                kAblationPairs, rec, "power", ablations, ref, ""));
            powerPct = 100.0 * (1.0 - a.speedA / a.speedB);
        }
        if (sc.hmc.chain.numCubes > 1) {
            // At most four threads, never more than the host has.
            const unsigned threads = std::max(
                1u, std::min(4u, std::thread::hardware_concurrency()));
            Config par = with(cfg, "sim.parallel", "on");
            par.setU64("sim.threads", threads);
            // The parallel engine must reproduce the serial digest.
            const Ablation &a = ablationRuns.emplace_back(ablate(
                w, cfg, par, kAblationPairs, rec, "sim.parallel", ablations,
                ref, ref));
            speedup = a.speedB / a.speedA;
        }

        const double tracedSpeed_ = median(tracedSpeed);
        const double untracedSpeed_ = median(untracedSpeed);
        metrics = {
            {"sim.events_per_sim_us", perUs(m.at("kernel.window_events")),
             "1/sim_us"},
            {"host.requests_per_sim_us",
             perUs(m.at("result.total_reads") + m.at("result.total_writes")),
             "1/sim_us"},
            {"host.read_p50_ns", m.at("latency.p50_ns"), "ns"},
            {"host.read_tail_ns", m.at("latency.tail_ns"), "ns"},
            {"host.read_tail_pct", m.at("latency.tail_pct"), "%"},
            {"host.read_samples", m.at("latency.samples"), "count"},
            {"hmc.link_flits_per_sim_us",
             perUs(sumStats(m, ".up_flits") + sumStats(m, ".down_flits")),
             "1/sim_us"},
            {"noc.flits_per_sim_us",
             perUs(sumStats(m, ".noc.flits_delivered")), "1/sim_us"},
            {"dram.accesses_per_sim_us",
             perUs(sumStats(m, ".mem.row_hits") +
                   sumStats(m, ".mem.row_misses")),
             "1/sim_us"},
            {"dram.row_hit_ratio",
             sumStats(m, ".mem.row_hits") /
                 std::max(1.0, sumStats(m, ".mem.row_hits") +
                                   sumStats(m, ".mem.row_misses")),
             "ratio"},
            {"hmc.vault_peak_bank_queue", maxStats(m, ".peak_bank_queue"),
             "count"},
            {"chain.fwd_flits_per_sim_us",
             perUs(sumStats(m, ".fwd.fwd_flits")), "1/sim_us"},
            {"chain.queue_full_stalls_per_sim_us",
             perUs(sumStats(m, ".fwd.queue_full_stalls")), "1/sim_us"},
            {"chain.rx_hol_stalls_per_sim_us",
             perUs(sumStats(m, ".fwd.rx_hol_stalls")), "1/sim_us"},
            {"chain.avg_hops", m.at("result.avg_chain_hops"), "hops"},
        };
        for (std::size_t i = 0; i < kNumAnatomyPhases; ++i) {
            const std::string phase =
                toString(static_cast<AnatomyPhase>(i));
            const auto it = m.find("anatomy." + phase + "_mean_ns");
            metrics.push_back({"obs.anatomy." + phase + "_ns",
                               it == m.end() ? 0.0 : it->second, "ns"});
        }
        const std::vector<Metric> host = {
            {"power.energy_pj_per_sim_us", perUs(m.at("result.energy_pj")),
             "pJ/sim_us"},
            {"host.source_ns_per_req", src.nsPerReq, "ns"},
            {"hmc.decode_ns", decodeNs, "ns"},
            {"dram.service_ns", dramNs, "ns"},
            {"noc.ns_per_msg", noc.nsPerMsg, "ns"},
            {"chain.route_ns", routeNs, "ns"},
            {"sim.ns_per_event", eventNs, "ns"},
            {"analysis.collect_ms", collectMs, "ms"},
            {"analysis.stats_ms", statsMs, "ms"},
            {"obs.anatomy_overhead_pct", anatomyPct, "%"},
            {"power.overhead_pct", powerPct, "%"},
            {"sim.parallel_speedup", speedup, "x"},
            {"attributed_pct", attributedPct, "%"},
            {"unattributed_pct", 100.0 - attributedPct, "%"},
            {"host.wall_sim_us_per_s", wallSimUsPerS, "sim_us/s"},
            {"host.reference_kernel_ms", refMs, "ms"},
            {"trace.sim_us_per_s", tracedSpeed_, "sim_us/s"},
            {"trace.overhead_pct",
             100.0 * (1.0 - tracedSpeed_ / untracedSpeed_), "%"},
        };
        metrics.insert(metrics.end(), host.begin(), host.end());
        selfSec = rec.selfSeconds();
    }

    // ----- verdict -----
    const int runs = static_cast<int>(measured.reps.size() +
                                      probePhase.reps.size() +
                                      ablations.reps.size());
    const int failedRuns =
        measured.failed + probePhase.failed + ablations.failed;
    std::vector<std::string> failures = measured.failures;
    failures.insert(failures.end(), probePhase.failures.begin(),
                    probePhase.failures.end());
    failures.insert(failures.end(), ablations.failures.begin(),
                    ablations.failures.end());
    const bool correct = failedRuns == 0;

    const std::string prov = provenanceJson(args, cfg, w);
    std::ofstream out(args.out);
    if (!out) {
        std::cerr << "hmcbench: cannot write " << args.out << "\n";
        return 1;
    }
    out << "{\n  \"provenance\": " << prov << ",\n  \"trace\": "
        << (args.trace ? 1 : 0) << ",\n  \"correct\": "
        << (correct ? "true" : "false") << ",\n  \"runs\": " << runs
        << ",\n  \"failed_runs\": " << failedRuns << ",\n  \"failures\": [";
    for (std::size_t i = 0; i < failures.size(); ++i)
        out << (i ? ", " : "") << str(failures[i]);
    out << "],\n  \"digest\": " << str(first.digest)
        << ",\n  \"sim_us_per_s_quartiles\": [" << num(speedQ.q1) << ", "
        << num(speedQ.q2) << ", " << num(speedQ.q3)
        << "],\n  \"wall_sim_us_per_s\": " << num(wallSimUsPerS)
        << ",\n  \"wall_setup_s\": "
        << num(median(measured.values(&Rep::setupSec)))
        << ",\n  \"reference_kernel_ms\": " << num(refMs);
    auto list = [&](const std::vector<double> &v) {
        out << "[";
        for (std::size_t i = 0; i < v.size(); ++i)
            out << (i ? ", " : "") << num(v[i]);
        out << "]";
    };
    const std::pair<const char *, double Rep::*> samples[] = {
        {"sim_us_per_s", &Rep::normSimUsPerS},
        {"wall_sim_us_per_s", &Rep::simUsPerS},
        {"reference_kernel_s", &Rep::refSec},
        {"setup_reference_kernel_s", &Rep::refSetupSec}};
    for (const auto &[name, field] : samples) {
        out << ",\n  \"samples_" << name << "\": ";
        list(measured.values(field));
    }
    // Reference kernel time (both kernels) after the tear-down of every
    // ablation repetition, in pairs run back to back:
    // [[as configured...], [ablated...]].
    out << ",\n  \"ablation_reference_kernel_ms\": {";
    for (std::size_t i = 0; i < ablationRuns.size(); ++i) {
        out << (i ? ", " : "") << str(ablationRuns[i].name) << ": [";
        list(ablationRuns[i].refMsA);
        out << ", ";
        list(ablationRuns[i].refMsB);
        out << "]";
    }
    out << "}";
    out << ",\n  \"window_wall_s\": " << num(windowWallSec)
        << ",\n  \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        out << (i ? "," : "") << "\n    " << str(metrics[i].name)
            << ": {\"value\": " << num(metrics[i].value)
            << ", \"unit\": " << str(metrics[i].unit) << "}";
    out << "\n  },\n  \"span_self_seconds\": {";
    {
        bool firstKey = true;
        for (const auto &[k, v] : selfSec) {
            out << (firstKey ? "" : ", ") << str(k) << ": " << num(v);
            firstKey = false;
        }
    }
    out << "},\n  \"sim_stats\": {";
    {
        bool firstKey = true;
        for (const auto &[k, v] : sim) {
            out << (firstKey ? "\n    " : ",\n    ") << str(k) << ": "
                << num(v);
            firstKey = false;
        }
    }
    out << "\n  }\n}\n";
    out.close();
    if (!out) {
        std::cerr << "hmcbench: cannot write " << args.out << "\n";
        return 1;
    }

    if (args.trace && !args.spans.empty() &&
        !rec.writeChromeJson(args.spans, prov)) {
        std::cerr << "hmcbench: cannot write " << args.spans << "\n";
        return 1;
    }

    std::cout << w.name << " seed " << args.seed << ": " << runs
              << " runs, " << failedRuns << " failed, digest "
              << first.digest << "\n";
    for (const std::string &f : failures)
        std::cout << "  FAILED: " << f << "\n";
    return 0;
}
