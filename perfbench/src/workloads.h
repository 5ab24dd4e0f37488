/**
 * @file
 * The benchmark's three workloads.  Each is a closed-loop,
 * single-threaded serial-engine run configured only through config
 * keys (host.workload* / host.port<N>.workload*), so the simulator
 * receives nothing but a Config whose per-port WorkloadSpec seeds are
 * derived from the benchmark seed.
 *
 * Why these three (README.md has the full rationale):
 *   gups128_cube1     Fig. 6 bandwidth peak: every single-cube layer
 *                     busy; chain idle.
 *   stream128_vault0  Fig. 7 latency point: one vault's queue and DRAM
 *                     block every request; anatomy observer on.
 *   ring8_rw64        chain scaling: forwarding, cube-to-cube links,
 *                     routing and writes carry the load; power and obs
 *                     off.
 */

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/types.h"
#include "host/experiment.h"

namespace hmcsim {
class System;
}

namespace perfbench {

/** What the workload's paper_err_pct compares against. */
enum class Anchor {
    /** Total bandwidth of the measured window vs the paper, GB/s. */
    Bandwidth,
    /** Mean read latency of the measured window vs the paper, ns. */
    ReadLatency,
    /** The Fig. 7 point (stream128_vault0's traffic) replayed on this
     *  workload's system: for systems the paper never measured. */
    Fig7Probe,
};

struct Workload {
    std::string name;
    /** Config keys applied on top of the defaults (per-port seeds are
     *  added by config()). */
    std::map<std::string, std::string> keys;
    std::uint32_t ports = 0;
    hmcsim::Tick warmup = 0;
    /** Measured window; fixed so every repetition of one seed
     *  simulates exactly the same thing. */
    hmcsim::Tick window = 0;
    /** Equal slices the window is run in (spans per slice show
     *  steadiness in the traced run). */
    std::uint32_t slices = 1;
    Anchor anchor = Anchor::Bandwidth;
    /** The paper's figure for the anchor (GB/s or ns). */
    double paperValue = 0.0;

    /** Full config of this workload for benchmark seed @p seed. */
    hmcsim::Config config(std::uint64_t seed) const;
};

/** The per-port WorkloadSpec seed derived from the benchmark seed. */
std::uint64_t portSeed(std::uint64_t benchSeed, hmcsim::PortId port);

const std::vector<Workload> &allWorkloads();

/** Workload named @p name, or null. */
const Workload *findWorkload(const std::string &name);

/** The Fig. 7 latency point (stream128_vault0's traffic) run on
 *  @p base's system configuration; used by Anchor::Fig7Probe. */
Workload fig7Probe(const Workload &base);

/** Enable read-latency histograms on every active port of @p sys
 *  (observation-only; gives the median and tail percentiles). */
void enableLatencyHistograms(hmcsim::System &sys);

/**
 * Everything simulated about one measured window, flattened into one
 * map: @p stats (System::stats()), the ExperimentResult fields, the
 * anatomy phase means, the read-latency median and tail percentile
 * (from the port histograms) and the window's executed-event count.
 * Its digest must be identical for every run of one seed and under
 * any change meant only to make the simulator faster.
 */
std::map<std::string, double>
simulatedStats(std::map<std::string, double> stats, hmcsim::System &sys,
               const hmcsim::ExperimentResult &r, std::uint64_t windowEvents);

/**
 * The correctness check over one measured window of @p sys, judged
 * against the system's own config and workload spec.
 * @return empty when the window is correct, else why it is not
 */
std::string checkWindow(hmcsim::System &sys,
                        const hmcsim::ExperimentResult &r);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
