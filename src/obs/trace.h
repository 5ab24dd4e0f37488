/**
 * @file
 * Packet-lifetime flight recorder.
 *
 * A fixed-capacity ring buffer of per-packet lifecycle events (inject,
 * link tx/rx, chain-hop ingress, vault enqueue, DRAM completion,
 * response injection, eject).  Two levels:
 *
 *  - summary: one batch of events per sampled packet, reconstructed
 *    from the packet's latency-decomposition timestamps when the
 *    response reaches the host (a single hook on the completion path);
 *  - full: live events recorded at every instrumented point while the
 *    packet moves.
 *
 * Off is the default and costs exactly one null-pointer test at each
 * hook site (components cache a tracer pointer that stays null).
 * Recording never changes simulated behavior -- the tracer only reads.
 *
 * The buffer can be dumped as Chrome trace_event JSON
 * (chrome://tracing or https://ui.perfetto.dev) and, on panic(), the
 * last N events are written to stderr as a crash dump.
 */

#ifndef HMCSIM_OBS_TRACE_H_
#define HMCSIM_OBS_TRACE_H_

#include <cstdint>
#include <ostream>
#include <vector>

#include "common/types.h"
#include "hmc/packet.h"
#include "obs/obs_config.h"

namespace hmcsim {

/** Lifecycle points along a packet's path. */
enum class TraceStage : std::uint8_t {
    Inject,        ///< request generated in an FPGA port
    LinkTx,        ///< serialization onto a SerDes link begins
    LinkRx,        ///< packet lands in a link RX buffer
    ChainIngress,  ///< first cube's link layer received the request
    ChainForward,  ///< a chain switch accepted the packet to pass through
    VaultEnqueue,  ///< delivered into a vault controller's input queue
    DramDone,      ///< DRAM data transferred for the request
    RespInject,    ///< response entered the cube-internal NoC
    Eject,         ///< response drained by the issuing host's port
};

const char *toString(TraceStage s);

/** Sentinel for "location unknown at this hook". */
constexpr std::uint32_t kTraceNoWhere = 0xffffffffu;

struct TraceEvent {
    Tick tick = 0;
    PacketId packet = 0;
    TraceStage stage = TraceStage::Inject;
    HmcCmd cmd = HmcCmd::Read;
    /** Cube the event happened on; kTraceNoWhere when not applicable. */
    std::uint32_t cube = kTraceNoWhere;
    /** Stage-specific location: port, link or vault id. */
    std::uint32_t where = kTraceNoWhere;
};

class PacketTracer
{
  public:
    PacketTracer(TraceMode mode, std::uint64_t sample_every,
                 std::size_t capacity);

    TraceMode mode() const { return mode_; }

    /** Lifecycle identity: responses trace under their request's id
     *  (HmcPacket::traceId), so both directions share one lane. */
    static PacketId
    lifeId(const HmcPacket &pkt)
    {
        return pkt.traceId != 0 ? pkt.traceId : pkt.id;
    }

    /** True when packet @p id is in the sampled subset. */
    bool
    wants(PacketId id) const
    {
        return sampleEvery_ <= 1 || id % sampleEvery_ == 0;
    }

    /** Sampling decision on the packet's lifecycle identity. */
    bool wants(const HmcPacket &pkt) const { return wants(lifeId(pkt)); }

    /** Record one live event (full mode hooks). */
    void record(Tick tick, const HmcPacket &pkt, TraceStage stage,
                std::uint32_t cube = kTraceNoWhere,
                std::uint32_t where = kTraceNoWhere);

    /**
     * Record a whole lifecycle from the packet's timestamps (summary
     * mode; called once when the response reaches the host).  Stages
     * whose timestamp was never stamped are skipped.
     */
    void recordLifecycle(const HmcPacket &pkt, std::uint32_t port);

    /** Events recorded over the tracer's lifetime (incl. overwritten). */
    std::uint64_t eventsRecorded() const { return total_; }

    /** Buffer contents, oldest recorded first. */
    std::vector<TraceEvent> events() const;

    void clear();

    /**
     * Dump the buffer as Chrome trace_event JSON.  Each packet becomes
     * one "thread" (tid = packet id) inside the per-cube "process";
     * consecutive stages become complete ("X") duration slices, so a
     * packet's inject→eject lifecycle reads as one flame line.
     */
    void dumpChromeJson(std::ostream &os) const;

    /**
     * Emit just the trace_event objects (no document wrapper) so a
     * caller can merge other event streams -- e.g. congestion counter
     * tracks -- into one Chrome JSON document.  @p first is the shared
     * comma-tracking flag across emitters.
     */
    void emitChromeEvents(std::ostream &os, bool &first) const;

    /** Human-readable dump of the last @p n events (crash diagnosis). */
    void dumpLastEvents(std::ostream &os, std::size_t n) const;

  private:
    TraceMode mode_;
    std::uint64_t sampleEvery_;
    std::vector<TraceEvent> ring_;
    std::size_t cap_;
    std::size_t next_ = 0;
    bool wrapped_ = false;
    std::uint64_t total_ = 0;

    void push(const TraceEvent &ev);
};

}  // namespace hmcsim

#endif  // HMCSIM_OBS_TRACE_H_
