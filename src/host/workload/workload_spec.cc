#include "host/workload/workload_spec.h"

#include <cctype>
#include <cstdlib>

#include "common/log.h"

namespace hmcsim {

namespace {

bool
knownType(const std::string &t)
{
    return t == "gups" || t == "stride" || t == "zipf" || t == "burst" ||
        t == "trace" || t == "mix";
}

/**
 * The "<prefix>workload*" key list.  The request kind is the one key
 * outside it: it reads and writes its own enum strings.
 */
template <typename C, typename F>
void
fields(C &c, const F &f)
{
    f("workload", c.type);
    f("workload.request_bytes", c.requestBytes);
    f("workload.write_fraction", c.writeFraction);
    f("workload.vaults", c.patternVaults);
    f("workload.banks", c.patternBanks);
    f("workload.base_vault", c.baseVault);
    f("workload.base_bank", c.baseBank);
    f("workload.seed", c.seed);

    f("workload.inject", c.inject);
    f("workload.window", c.window);
    f("workload.batch", c.batchSize);
    f("workload.rate_per_ns", c.ratePerNs);
    f("workload.burstiness", c.burstiness);

    f("workload.gups_mode", c.gupsMode);

    f("workload.stride_bytes", c.strideBytes);
    f("workload.stride_span", c.strideSpanBytes);
    f("workload.stride_base", c.strideBase);

    f("workload.zipf_theta", c.zipfTheta);
    f("workload.zipf_domain", c.zipfDomain);
    f("workload.zipf_hot_items", c.zipfHotItems);

    f("workload.burst_inner", c.burstInner);
    f("workload.burst_len", c.burstLen);
    f("workload.burst_gap_ns", c.burstGapNs);
    f("workload.burst_jitter", c.burstJitter);

    f("workload.trace_file", c.traceFile);
    f("workload.trace_length", c.traceLength);
    f("workload.trace_loop", c.traceLoop);

    f("workload.mix_phases", c.mixPhases);
}

const char *const kKindKey = "workload.kind";

}  // namespace

void
WorkloadSpec::validate() const
{
    if (!knownType(type))
        fatal("workload: unknown type '" + type +
              "' (gups|stride|zipf|burst|trace|mix)");
    if (requestBytes == 0)
        fatal("workload: zero request size");
    if (writeFraction < 0.0 || writeFraction > 1.0)
        fatal("workload: write fraction outside [0, 1]");
    if (inject != "closed" && inject != "open")
        fatal("workload: unknown injection mode '" + inject +
              "' (closed|open)");
    if (inject == "open" && ratePerNs <= 0.0)
        fatal("workload: open loop needs a positive rate_per_ns");
    if (type == "zipf" && zipfDomain != "vault" && zipfDomain != "cube" &&
        zipfDomain != "block")
        fatal("workload: unknown zipf domain '" + zipfDomain +
              "' (vault|cube|block)");
    if (type == "zipf" && (zipfTheta < 0.0 || zipfTheta >= 1.0))
        fatal("workload: zipf_theta must be in [0, 1)");
    if (type == "burst" &&
        (burstInner == "burst" || burstInner == "mix" ||
         !knownType(burstInner)))
        fatal("workload: burst_inner must be gups|stride|zipf|trace");
    if (type == "mix" && mixPhases.empty())
        fatal("workload: mix needs mix_phases");
}

WorkloadSpec
WorkloadSpec::fromConfig(const Config &cfg, const std::string &prefix,
                         const WorkloadSpec &defaults)
{
    WorkloadSpec s = defaults;
    fields(s, ConfigReader{cfg, prefix});
    s.kind = reqKindFromString(
        cfg.getString(prefix + kKindKey, toString(s.kind)));
    s.validate();
    return s;
}

void
WorkloadSpec::toConfig(Config &cfg, const std::string &prefix) const
{
    fields(*this, ConfigWriter{cfg, prefix});
    cfg.set(prefix + kKindKey, toString(kind));
}

Tick
parseDurationTicks(const std::string &text)
{
    if (text.empty())
        fatal("duration: empty string");
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || value < 0.0)
        fatal("duration: malformed '" + text + "'");
    std::string unit(end);
    while (!unit.empty() && std::isspace(static_cast<unsigned char>(unit.front())))
        unit.erase(unit.begin());
    double scale;
    if (unit.empty() || unit == "ns")
        scale = static_cast<double>(kNanosecond);
    else if (unit == "us")
        scale = static_cast<double>(kMicrosecond);
    else if (unit == "ms")
        scale = static_cast<double>(kMillisecond);
    else if (unit == "s")
        scale = static_cast<double>(kSecond);
    else
        fatal("duration: unknown unit '" + unit + "' in '" + text + "'");
    return static_cast<Tick>(value * scale + 0.5);
}

ReqKind
reqKindFromString(const std::string &s)
{
    if (s == "read")
        return ReqKind::ReadOnly;
    if (s == "write")
        return ReqKind::WriteOnly;
    if (s == "rmw")
        return ReqKind::ReadModifyWrite;
    fatal("workload: unknown request kind '" + s + "' (read|write|rmw)");
}

const char *
toString(ReqKind kind)
{
    switch (kind) {
      case ReqKind::ReadOnly:
        return "read";
      case ReqKind::WriteOnly:
        return "write";
      case ReqKind::ReadModifyWrite:
        return "rmw";
    }
    return "read";
}

AddrMode
addrModeFromString(const std::string &s)
{
    if (s == "random")
        return AddrMode::Random;
    if (s == "linear")
        return AddrMode::Linear;
    fatal("workload: unknown gups mode '" + s + "' (random|linear)");
}

const char *
toString(AddrMode mode)
{
    return mode == AddrMode::Random ? "random" : "linear";
}

}  // namespace hmcsim
