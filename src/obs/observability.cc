#include "obs/observability.h"

#include <fstream>
#include <iostream>

#include "common/log.h"
#include "common/units.h"

namespace hmcsim {

namespace {

/** Most recently constructed Observability with panic-path state; the
 *  panic hook is a plain function pointer, so the instance is reached
 *  through this file-scope slot. */
Observability *g_crashDumpTarget = nullptr;

void
crashDumpHook()
{
    if (g_crashDumpTarget)
        g_crashDumpTarget->onPanic();
}

constexpr std::size_t kCrashDumpEvents = 64;

}  // namespace

Observability::Observability(const ObsConfig &cfg) : cfg_(cfg)
{
    cfg_.validate();
    if (cfg_.traceMode() != TraceMode::Off)
        tracer_ = std::make_unique<PacketTracer>(
            cfg_.traceMode(), cfg_.traceSampleEvery,
            static_cast<std::size_t>(cfg_.traceBufferEvents));
    if (cfg_.anatomy)
        anatomy_ = std::make_unique<AnatomyCollector>(cfg_, &registry_);
    // Anything the panic path can flush (trace tail, partial
    // time-series row, trace JSON) arms the hook.
    if (tracer_ || cfg_.sampleIntervalNs > 0) {
        g_crashDumpTarget = this;
        prevHook_ = setPanicHook(&crashDumpHook);
        hookInstalled_ = true;
    }
}

Observability::~Observability()
{
    if (hookInstalled_ && g_crashDumpTarget == this) {
        setPanicHook(prevHook_);
        g_crashDumpTarget = nullptr;
    }
    if (tracer_ && !cfg_.traceJsonPath.empty())
        dumpTraceToFile(cfg_.traceJsonPath);
}

void
Observability::startSampler(Kernel &kernel)
{
    if (cfg_.sampleIntervalNs > 0 && !sampler_) {
        sampler_ = std::make_unique<TimeSeriesSampler>(
            kernel, registry_, cfg_.sampleIntervalNs * kNanosecond,
            cfg_.sampleCsvPath);
        sampler_->start();
    }
    if (cfg_.anatomy && !congestion_) {
        congestion_ = std::make_unique<CongestionRecorder>(
            kernel, registry_,
            cfg_.anatomyWindowNsEffective() * kNanosecond);
        congestion_->start();
    }
}

void
Observability::onStatsReset()
{
    if (sampler_)
        sampler_->rebase();
}

void
Observability::onComponentReplaced(const std::string &path)
{
    if (sampler_)
        sampler_->restart(path + ".");
}

void
Observability::dumpTrace(std::ostream &os) const
{
    if (!tracer_)
        return;
    // Crash-dump context gets the readable tail; full JSON goes to
    // files.  Callers with an ostream want the human-readable form.
    tracer_->dumpLastEvents(os, kCrashDumpEvents);
}

void
Observability::dumpTraceToFile(const std::string &path) const
{
    if (!tracer_)
        return;
    std::ofstream f(path);
    if (!f) {
        warn("obs: cannot write trace json '" + path + "'");
        return;
    }
    f << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
    bool first = true;
    tracer_->emitChromeEvents(f, first);
    if (congestion_)
        congestion_->emitCounterTracks(f, first);
    f << "\n]}\n";
    inform("obs: wrote " + std::to_string(tracer_->events().size()) +
           " trace events to " + path);
}

void
Observability::onPanic()
{
    // Keep this path allocation-light and re-entrancy safe: panic()
    // raised inside these flushes must not recurse (the hook slot is
    // cleared first).
    g_crashDumpTarget = nullptr;
    dumpTrace(std::cerr);
    if (sampler_)
        sampler_->flushNow();
    if (tracer_ && !cfg_.traceJsonPath.empty())
        dumpTraceToFile(cfg_.traceJsonPath);
}

}  // namespace hmcsim
