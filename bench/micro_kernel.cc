/**
 * @file
 * google-benchmark microbenchmarks of the simulation engine itself:
 * event-queue throughput, router hop cost, DRAM service planning, and
 * end-to-end simulated-time rate.  These guard the simulator's own
 * performance (a full Fig. 10 sweep runs ~7k short simulations).
 */

#include <benchmark/benchmark.h>

#include "dram/vault_memory.h"
#include "host/experiment.h"
#include "host/system.h"
#include "sim/kernel.h"

using namespace hmcsim;

namespace {

void
BM_EventQueueScheduleExecute(benchmark::State &state)
{
    Kernel kernel;
    const int batch = static_cast<int>(state.range(0));
    std::uint64_t x = 0;
    for (auto _ : state) {
        for (int i = 0; i < batch; ++i) {
            kernel.scheduleIn(static_cast<Tick>((i * 7919) % 1000) + 1,
                              [&x] { ++x; });
        }
        kernel.run();
    }
    benchmark::DoNotOptimize(x);
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueueScheduleExecute)->Arg(256)->Arg(4096);

/**
 * Steady-state schedule/execute throughput of the calendar queue
 * across pending-set sizes and time skews.  Each executed event is
 * replaced by a fresh one a pseudo-random delay in [1, skew] ahead,
 * holding the pending population constant -- the schedule pattern of
 * a saturated simulation.  Small skews keep every event inside the
 * ring; the largest skew forces far-future heap traffic.  A large
 * pending set at the smallest skew (delays far below one 512 ps
 * bucket) is the calendar's adversarial geometry: nearly every insert
 * lands out of order in the current bucket.
 */
void
BM_EventQueuePendingSkew(benchmark::State &state)
{
    const int pending = static_cast<int>(state.range(0));
    const Tick skew = static_cast<Tick>(state.range(1));
    EventQueue q;
    std::uint64_t executed = 0;
    std::uint64_t rng = 0x9e3779b97f4a7c15ull;
    const auto next_delay = [&rng, skew] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return static_cast<Tick>(rng % skew) + 1;
    };
    const auto count = [&executed] { ++executed; };
    for (int i = 0; i < pending; ++i)
        q.schedule(next_delay(), count);
    for (auto _ : state) {
        const Tick now = q.executeNext();
        q.schedule(now + next_delay(), count);
    }
    benchmark::DoNotOptimize(executed);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueuePendingSkew)
    ->ArgNames({"pending", "skew"})
    ->ArgsProduct({{64, 1024, 16384}, {100, 4000, 1000000}});

void
BM_DramServicePlanning(benchmark::State &state)
{
    Kernel kernel;
    const DramTimingParams params = DramTimingParams::hmcGen2();
    VaultMemory mem(kernel, nullptr, "vmem", params, 16);
    Tick now = 0;
    std::uint64_t i = 0;
    for (auto _ : state) {
        DramAccess a;
        a.bank = static_cast<BankId>(i % 16);
        a.row = static_cast<RowId>((i * 2654435761u) % 65536);
        a.bytes = 128;
        const auto r = mem.service(a, now, PagePolicy::Closed);
        now = r.colTime;
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramServicePlanning);

void
BM_EndToEndGups(benchmark::State &state)
{
    // Simulated microseconds per wall second, the number that bounds
    // every figure sweep.
    const std::uint32_t bytes = static_cast<std::uint32_t>(state.range(0));
    for (auto _ : state) {
        SystemConfig cfg;
        WorkloadSpec gups;
        gups.requestBytes = bytes;
        addWorkloadPorts(cfg, 9, gups, 5);
        System sys(cfg);
        sys.run(10 * kMicrosecond);
        benchmark::DoNotOptimize(sys.now());
    }
    state.SetLabel("10us simulated per iteration");
}
BENCHMARK(BM_EndToEndGups)->Arg(16)->Arg(128)
    ->Unit(benchmark::kMillisecond);

void
BM_StreamBatchExperiment(benchmark::State &state)
{
    for (auto _ : state) {
        WorkloadSpec stream;
        stream.type = "trace";
        stream.requestBytes = 64;
        stream.patternVaults = 1;
        stream.batchSize = 40;
        stream.seed = 104729;
        SystemConfig point;
        point.host.portWorkloads.push_back({0, stream});
        const ExperimentResult r =
            runPoint(point, 2 * kMicrosecond, 5 * kMicrosecond);
        benchmark::DoNotOptimize(r.avgReadLatencyNs);
    }
}
BENCHMARK(BM_StreamBatchExperiment)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
