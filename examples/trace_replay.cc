/**
 * @file
 * Trace replay: generate (or load) memory traces for three workload
 * shapes the paper's introduction motivates -- streaming, random
 * (GUPS-like), and pointer chasing -- replay them through stream
 * ports, and compare their latency/bandwidth behaviour.
 *
 * Run: ./trace_replay [trace-file]
 *   With a file argument, replays that trace on port 0 instead of the
 *   synthetic workloads (text or binary format; see host/trace.h).
 */

#include <cstdio>
#include <exception>
#include <iostream>

#include "host/system.h"

using namespace hmcsim;

namespace {

void
report(const char *name, System &sys, PortId port)
{
    const Monitor &m = sys.port(port).monitor();
    std::printf("  %-14s reads %8llu  avg %7.0f ns  max %7.0f ns\n",
                name,
                static_cast<unsigned long long>(m.reads()),
                m.readLatencyNs().mean(), m.readLatencyNs().max());
}

int
replayFile(const std::string &path)
{
    System sys;
    Trace trace = loadTraceFile(path);
    std::printf("replaying %zu records from %s\n", trace.size(),
                path.c_str());
    WorkloadSpec replay;
    replay.type = "trace";
    replay.traceLoop = false;
    sys.configureWorkload(0, replay, std::move(trace));
    if (!sys.runUntilIdle(100 * kMillisecond)) {
        std::fprintf(stderr, "trace did not finish within 100 ms\n");
        return 1;
    }
    report("trace", sys, 0);
    std::printf("  finished at t=%.1f us\n", ticksToUs(sys.now()));
    return 0;
}

}  // namespace

int
main(int argc, char **argv)
try {
    if (argc > 1)
        return replayFile(argv[1]);

    SystemConfig cfg;
    System sys(cfg);
    Rng rng(7);

    WorkloadSpec replay;
    replay.type = "trace";

    // Streaming: sequential 128 B lines -- rides the vault-then-bank
    // interleave perfectly.
    sys.configureWorkload(0, replay, makeStreamTrace(0, 8192, 128, 128));

    // Random: uniform 64 B over the whole cube.
    sys.configureWorkload(
        1, replay,
        makeRandomTrace(rng, sys.addressMap().pattern(16, 16),
                        cfg.hmc.totalCapacityBytes(), 8192, 64));

    // Pointer chase: dependent-ish hops inside a 16 MB pool with a
    // shallow window, the latency-bound extreme.
    replay.window = 1;  // one dependent load at a time
    sys.configureWorkload(
        2, replay, makePointerChaseTrace(rng, 0, 16ull << 20, 8192, 16));

    sys.run(20 * kMicrosecond);
    const ExperimentResult r = sys.measure(60 * kMicrosecond);

    std::printf("three workload shapes, 60 us steady state:\n");
    report("streaming", sys, 0);
    report("random", sys, 1);
    report("pointer chase", sys, 2);
    std::printf("  total bandwidth %.2f GB/s\n", r.bandwidthGBs);

    std::printf("\nper-workload takeaway: the chase pays the full "
                "round trip per hop;\nstreaming exploits vault-level "
                "parallelism via the Fig. 3 interleave.\n");
    return 0;
} catch (const std::exception &e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
}
