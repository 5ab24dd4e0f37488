/**
 * @file
 * Simulator performance trajectory: how fast is the simulator itself,
 * and how fast are the paper-figure workloads it reproduces?
 *
 * Writes one JSON document (default BENCH_events_per_sec.json, see
 * --out) with:
 *   - events_per_sec     headline kernel events per wall second, best
 *                        of N repetitions of the 9-port GUPS scenario
 *   - scenarios[]        per-scenario events/sec (classic single cube,
 *                        4- and 8-cube ring chains)
 *   - profile            the same scenario with obs.profile=1: class
 *                        attribution and observed profiling overhead
 *   - figures_of_merit   fig. 6/8 summary numbers so a perf change
 *                        that shifts simulated results is visible in
 *                        the same file
 *   - entries[]          append-only trajectory history: one compact
 *                        point per recorded run (commit, date,
 *                        events/sec, figures of merit).  Prior
 *                        entries are carried over verbatim from the
 *                        existing file; a v1 file (no entries) is
 *                        migrated by synthesizing its headline as the
 *                        first entry.
 *
 * --commit=SHA / --date=ISO label the appended entry (also via
 * HMCSIM_BENCH_TRAJECTORY_{COMMIT,DATE}); scripts/bench_trajectory.sh
 * fills them from git and the wall clock, and can gate on an
 * events/sec regression against the last recorded entry.
 */

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/report.h"
#include "bench_util.h"
#include "host/experiment.h"
#include "host/system.h"
#include "obs/profile.h"
#include "sim/kernel.h"

using namespace hmcsim;
using namespace hmcsim::bench;

namespace {

/** One measured run window. */
struct PerfPoint {
    std::string name;
    std::uint64_t events = 0;
    double wallSec = 0.0;
    Tick simTicks = 0;

    double
    eventsPerSec() const
    {
        return wallSec > 0.0 ? static_cast<double>(events) / wallSec
                             : 0.0;
    }
};

/** Configure @p numPorts read-only GUPS ports spanning 16 vaults. */
void
configureGupsPorts(System &sys, std::uint32_t numPorts,
                   std::uint32_t requestBytes)
{
    for (PortId p = 0; p < numPorts; ++p) {
        GupsPortSpec gp;
        gp.gen.pattern = sys.addressMap().pattern(16, 16);
        gp.gen.requestBytes = requestBytes;
        gp.gen.seed = 0x9e3779b9u + p;
        sys.configureGupsPort(p, gp);
    }
}

/** Run one scenario: warm up, then measure events vs wall clock. */
PerfPoint
measureScenario(const std::string &name, const SystemConfig &cfg,
                Tick warmup, Tick window)
{
    System sys(cfg);
    configureGupsPorts(sys, cfg.host.numPorts, 32);
    sys.run(warmup);

    PerfPoint pt;
    pt.name = name;
    pt.simTicks = window;
    const std::uint64_t before = sys.kernel().eventsExecuted();
    const WallTimer timer;
    sys.run(window);
    pt.wallSec = timer.seconds();
    pt.events = sys.kernel().eventsExecuted() - before;
    return pt;
}

std::string
q(const std::string &s)
{
    return "\"" + jsonEscape(s) + "\"";
}

std::string
readWholeFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return "";
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/**
 * Inner text of the document's "entries": [ ... ] array (without the
 * brackets), or "" when absent.  We only ever parse our own writer's
 * output, so bracket matching (no strings containing brackets) is
 * sufficient.
 */
std::string
extractEntriesInner(const std::string &doc)
{
    const std::size_t key = doc.find("\"entries\"");
    if (key == std::string::npos)
        return "";
    const std::size_t open = doc.find('[', key);
    if (open == std::string::npos)
        return "";
    int depth = 0;
    for (std::size_t i = open; i < doc.size(); ++i) {
        if (doc[i] == '[')
            ++depth;
        else if (doc[i] == ']' && --depth == 0) {
            std::string inner = doc.substr(open + 1, i - open - 1);
            // Trim whitespace-only content to "".
            const std::size_t a = inner.find_first_not_of(" \t\r\n");
            if (a == std::string::npos)
                return "";
            const std::size_t b = inner.find_last_not_of(" \t\r\n");
            return inner.substr(a, b - a + 1);
        }
    }
    return "";
}

/** First numeric value following "key": in @p doc, or @p fallback. */
double
extractNumber(const std::string &doc, const std::string &key,
              double fallback)
{
    const std::size_t k = doc.find("\"" + key + "\"");
    if (k == std::string::npos)
        return fallback;
    const std::size_t colon = doc.find(':', k);
    if (colon == std::string::npos)
        return fallback;
    return std::atof(doc.c_str() + colon + 1);
}

/**
 * Migrate a v1 document (headline keys, no entries array) into one
 * history entry so the trajectory keeps its oldest point.
 */
std::string
synthesizeV1Entry(const std::string &doc)
{
    if (doc.find("\"events_per_sec\"") == std::string::npos)
        return "";
    std::ostringstream e;
    e << "    {\n";
    e << "      \"commit\": \"unknown\",\n";
    e << "      \"date\": null,\n";
    e << "      \"events_per_sec\": "
      << jsonNumber(extractNumber(doc, "events_per_sec", 0.0)) << ",\n";
    e << "      \"fast_mode\": "
      << (doc.find("\"fast_mode\": true") != std::string::npos
              ? "true"
              : "false")
      << ",\n";
    e << "      \"window_scale\": "
      << jsonNumber(extractNumber(doc, "window_scale", 1.0)) << ",\n";
    e << "      \"figures_of_merit\": {\n";
    e << "        \"fig06_16vaults_128B_bandwidth_gbs\": "
      << jsonNumber(extractNumber(
             doc, "fig06_16vaults_128B_bandwidth_gbs", 0.0))
      << ",\n";
    e << "        \"fig06_16vaults_128B_latency_ns\": "
      << jsonNumber(
             extractNumber(doc, "fig06_16vaults_128B_latency_ns", 0.0))
      << ",\n";
    e << "        \"fig08_saturated_latency_us_32B\": "
      << jsonNumber(
             extractNumber(doc, "fig08_saturated_latency_us_32B", 0.0))
      << "\n";
    e << "      }\n";
    e << "    }";
    return e.str();
}

}  // namespace

int
main(int argc, char **argv)
{
    // Strip --out/--commit/--date before handing the rest to the
    // shared parser.
    std::string outPath = "BENCH_events_per_sec.json";
    std::string commit = "unknown";
    std::string date;
    if (const char *env = std::getenv("HMCSIM_BENCH_TRAJECTORY_OUT"))
        outPath = env;
    if (const char *env = std::getenv("HMCSIM_BENCH_TRAJECTORY_COMMIT"))
        commit = env;
    if (const char *env = std::getenv("HMCSIM_BENCH_TRAJECTORY_DATE"))
        date = env;
    std::vector<char *> passArgv;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i > 0 && arg.rfind("--out=", 0) == 0)
            outPath = arg.substr(6);
        else if (i > 0 && arg.rfind("--commit=", 0) == 0)
            commit = arg.substr(9);
        else if (i > 0 && arg.rfind("--date=", 0) == 0)
            date = arg.substr(7);
        else
            passArgv.push_back(argv[i]);
    }
    bench::parseBenchArgs(static_cast<int>(passArgv.size()),
                          passArgv.data());

    const bool fast = fastMode();
    const Tick warmup = scaled(fast ? 2 : 5) * kMicrosecond;
    const Tick window = scaled(fast ? 8 : 30) * kMicrosecond;
    const int reps = fast ? 2 : 3;

    std::cout << "perf trajectory: measuring simulator events/sec"
              << (fast ? " (fast mode)" : "") << "\n";

    // ----- headline scenario: classic single-cube, 9-port GUPS -----
    // Best-of-N absorbs scheduler noise; every repetition builds a
    // fresh System so construction cost is excluded from the window.
    std::vector<PerfPoint> scenarios;
    PerfPoint classic;
    for (int r = 0; r < reps; ++r) {
        const PerfPoint pt = measureScenario(
            "classic_gups_9port_32B", SystemConfig{}, warmup, window);
        if (r == 0 || pt.eventsPerSec() > classic.eventsPerSec())
            classic = pt;
    }
    scenarios.push_back(classic);
    std::cout << "  " << classic.name << ": "
              << static_cast<std::uint64_t>(classic.eventsPerSec())
              << " events/sec (" << classic.events << " events, "
              << classic.wallSec << " s)\n";

    // ----- chain scenario: 4-cube ring, same firmware -----
    {
        SystemConfig cfg;
        cfg.hmc.chain.numCubes = 4;
        cfg.hmc.chain.topology = "ring";
        PerfPoint chain;
        for (int r = 0; r < reps; ++r) {
            const PerfPoint pt = measureScenario("chain4_ring_gups",
                                                 cfg, warmup, window);
            if (r == 0 || pt.eventsPerSec() > chain.eventsPerSec())
                chain = pt;
        }
        scenarios.push_back(chain);
        std::cout << "  " << chain.name << ": "
                  << static_cast<std::uint64_t>(chain.eventsPerSec())
                  << " events/sec\n";
    }

    // ----- chain scenario: 8-cube ring, power probes off -----
    {
        SystemConfig cfg;
        cfg.hmc.chain.numCubes = 8;
        cfg.hmc.chain.topology = "ring";
        cfg.hmc.power.enabled = false;
        PerfPoint chain8;
        for (int r = 0; r < reps; ++r) {
            const PerfPoint pt = measureScenario("chain8_ring_gups",
                                                 cfg, warmup, window);
            if (r == 0 || pt.eventsPerSec() > chain8.eventsPerSec())
                chain8 = pt;
        }
        scenarios.push_back(chain8);
        std::cout << "  " << chain8.name << ": "
                  << static_cast<std::uint64_t>(chain8.eventsPerSec())
                  << " events/sec\n";
    }

    // ----- self-profiled run: class attribution + overhead -----
    SelfProfiler profiled;
    double profiledEps = 0.0;
    {
        SystemConfig cfg;
        cfg.obs.profile = true;
        System sys(cfg);
        configureGupsPorts(sys, cfg.host.numPorts, 32);
        sys.run(warmup);
        const std::uint64_t before = sys.kernel().eventsExecuted();
        const WallTimer timer;
        sys.run(window);
        const double sec = timer.seconds();
        const std::uint64_t ev = sys.kernel().eventsExecuted() - before;
        profiledEps = sec > 0.0 ? static_cast<double>(ev) / sec : 0.0;
        if (const SelfProfiler *p = sys.obs()->profiler())
            profiled = *p;
    }

    // ----- figures of merit: fig. 6 / fig. 8 summary numbers -----
    const Tick fomWarmup = scaled(fast ? 3 : 10) * kMicrosecond;
    const Tick fomWindow = scaled(fast ? 8 : 25) * kMicrosecond;
    GupsSpec g6;
    g6.requestBytes = 128;
    g6.warmup = fomWarmup;
    g6.window = fomWindow;
    const ExperimentResult r6 = runGups(SystemConfig{}, g6);

    StreamBatchSpec g8;
    g8.batchSize = 350;
    g8.requestBytes = 32;
    g8.warmup = fomWarmup;
    g8.window = fomWindow;
    const ExperimentResult r8 = runStreamBatch(SystemConfig{}, g8);

    // ----- carry over (or migrate) the trajectory history -----
    const std::string prior = readWholeFile(outPath);
    std::string priorEntries = extractEntriesInner(prior);
    if (priorEntries.empty())
        priorEntries = synthesizeV1Entry(prior);

    // ----- emit the JSON document -----
    std::ofstream out(outPath);
    if (!out) {
        std::cerr << "bench_trajectory: cannot open " << outPath << "\n";
        return 1;
    }
    // Headline key first so shell tooling can grab the first
    // "events_per_sec" occurrence without a JSON parser.
    out << "{\n";
    out << "  \"bench\": \"hmcsim_perf_trajectory\",\n";
    out << "  \"schema_version\": 2,\n";
    out << "  \"events_per_sec\": " << jsonNumber(classic.eventsPerSec())
        << ",\n";
    out << "  \"fast_mode\": " << (fast ? "true" : "false") << ",\n";
    out << "  \"window_scale\": " << jsonNumber(windowScale()) << ",\n";
    out << "  \"scenarios\": [\n";
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        const PerfPoint &pt = scenarios[i];
        out << "    {\n";
        out << "      \"name\": " << q(pt.name) << ",\n";
        out << "      \"events\": " << pt.events << ",\n";
        out << "      \"wall_sec\": " << jsonNumber(pt.wallSec) << ",\n";
        out << "      \"sim_us\": "
            << jsonNumber(static_cast<double>(pt.simTicks) /
                          kMicrosecond)
            << ",\n";
        out << "      \"events_per_sec\": "
            << jsonNumber(pt.eventsPerSec()) << "\n";
        out << "    }" << (i + 1 < scenarios.size() ? "," : "") << "\n";
    }
    out << "  ],\n";
    out << "  \"profile\": {\n";
    out << "    \"events_per_sec\": " << jsonNumber(profiledEps) << ",\n";
    out << "    \"overhead_pct\": "
        << jsonNumber(classic.eventsPerSec() > 0.0
                          ? 100.0 * (1.0 - profiledEps /
                                               classic.eventsPerSec())
                          : 0.0)
        << ",\n";
    out << "    \"class_seconds\": {";
    {
        bool first = true;
        for (const auto &[cls, sec] : profiled.classSeconds()) {
            out << (first ? "\n" : ",\n") << "      " << q(cls) << ": "
                << jsonNumber(sec);
            first = false;
        }
        if (!first)
            out << "\n    ";
    }
    out << "}\n";
    out << "  },\n";
    out << "  \"figures_of_merit\": {\n";
    out << "    \"fig06_16vaults_128B_bandwidth_gbs\": "
        << jsonNumber(r6.bandwidthGBs) << ",\n";
    out << "    \"fig06_16vaults_128B_latency_ns\": "
        << jsonNumber(r6.avgReadLatencyNs) << ",\n";
    out << "    \"fig08_saturated_latency_us_32B\": "
        << jsonNumber(r8.avgReadLatencyNs / 1000.0) << "\n";
    out << "  },\n";
    // Append-only history, kept LAST in the document so the final
    // "events_per_sec" occurrence in the file is always the latest
    // recorded entry (what the shell wrapper's --check reads).
    out << "  \"entries\": [\n";
    if (!priorEntries.empty())
        out << "    " << priorEntries << ",\n";
    out << "    {\n";
    out << "      \"commit\": " << q(commit) << ",\n";
    out << "      \"date\": " << (date.empty() ? "null" : q(date))
        << ",\n";
    out << "      \"events_per_sec\": "
        << jsonNumber(classic.eventsPerSec()) << ",\n";
    out << "      \"fast_mode\": " << (fast ? "true" : "false") << ",\n";
    out << "      \"window_scale\": " << jsonNumber(windowScale())
        << ",\n";
    out << "      \"figures_of_merit\": {\n";
    out << "        \"fig06_16vaults_128B_bandwidth_gbs\": "
        << jsonNumber(r6.bandwidthGBs) << ",\n";
    out << "        \"fig06_16vaults_128B_latency_ns\": "
        << jsonNumber(r6.avgReadLatencyNs) << ",\n";
    out << "        \"fig08_saturated_latency_us_32B\": "
        << jsonNumber(r8.avgReadLatencyNs / 1000.0) << "\n";
    out << "      }\n";
    out << "    }\n";
    out << "  ]\n";
    out << "}\n";
    out.close();

    std::cout << "trajectory written to " << outPath << "\n";
    return 0;
}
