/**
 * @file
 * External full-duplex SerDes link between the host (FPGA) and the
 * cube.  Each direction serializes packets at lanes*Gbps, applies a
 * PHY/SerDes pipeline latency, enforces token-based flow control
 * against the remote RX buffer, and can inject CRC failures that are
 * healed by link-layer retry (at a bandwidth and latency cost).
 */

#ifndef HMCSIM_HMC_SERDES_LINK_H_
#define HMCSIM_HMC_SERDES_LINK_H_

#include <deque>

#include "common/inline_function.h"
#include "common/rng.h"
#include "common/stats.h"
#include "hmc/flow_control.h"
#include "hmc/packet.h"
#include "noc/channel.h"
#include "obs/metrics.h"
#include "power/power_probe.h"
#include "sim/component.h"

namespace hmcsim {

class PacketTracer;

/** Traffic direction over one link. */
enum class LinkDir : unsigned {
    /** Requests: host -> cube. */
    HostToCube = 0,
    /** Responses: cube -> host. */
    CubeToHost = 1,
};

/**
 * What sits at the upstream end of this link: the host controller, or
 * another cube's pass-through switch (multi-cube chaining).  Purely a
 * wiring annotation; the serialization/flow-control model is the same
 * in both modes.
 */
enum class LinkEndpointMode : unsigned {
    Host = 0,
    PassThrough = 1,
};

class SerdesLink : public Component
{
  public:
    struct Params {
        std::uint32_t lanes = 8;
        double gbps = 15.0;
        Tick wireLatency = 1600;
        Tick serdesLatency = 12800;
        std::uint32_t tokens = 128;
        Tick tokenReturnLatency = 3200;
        double crcErrorProb = 0.0;
        Tick retryDelay = 100000;
        std::uint64_t seed = 0xC0FFEE;
    };

    SerdesLink(Kernel &kernel, Component *parent, std::string name,
               LinkId id, const Params &params);

    LinkId id() const { return id_; }
    const Params &params() const { return params_; }

    /** Upstream endpoint kind; defaults to Host (single-cube wiring). */
    LinkEndpointMode endpointMode() const { return mode_; }
    void setEndpointMode(LinkEndpointMode m) { mode_ = m; }

    /** Ticks to serialize one 16 B flit on this link. */
    Tick flitPeriod() const { return flitPeriod_; }

    /** One-direction bandwidth in GB/s. */
    double bandwidthGBs() const;

    // ----- transmit side -----

    /** True if @p flits of remote buffer tokens are free. */
    bool canSend(LinkDir dir, std::uint32_t flits) const;

    /**
     * Reserve @p flits of tokens ahead of send().  Separating the two
     * lets a NoC ejection port reserve at switch-allocation time and
     * transmit at delivery time without over-committing tokens.
     */
    void reserveTokens(LinkDir dir, std::uint32_t flits);

    /** Transmit a packet whose tokens were reserved. */
    void send(LinkDir dir, const HmcPacketPtr &pkt);

    /** Fired whenever tokens return (transmit may resume). */
    void setOnTokensFree(LinkDir dir, InlineFunction<void()> fn);

    // ----- token visibility (adaptive chain routing telemetry) -----

    /** Remote-buffer tokens currently free in @p dir. */
    std::uint32_t tokensFree(LinkDir dir) const;

    /** Tokens consumed (reserved or riding the wire) in @p dir --
     *  the link's live backpressure signal. */
    std::uint32_t tokensInUse(LinkDir dir) const;

    /** Total token pool of @p dir (the remote RX buffer, in flits). */
    std::uint32_t tokenCapacity(LinkDir dir) const;

    // ----- receive side -----

    /** Fired when a packet lands in the RX buffer. */
    void setOnRxAvailable(LinkDir dir, InlineFunction<void()> fn);

    bool rxAvailable(LinkDir dir) const;
    const HmcPacketPtr &rxPeek(LinkDir dir) const;

    /** Packets waiting in the RX buffer of @p dir. */
    std::size_t rxQueued(LinkDir dir) const;

    /** Peek the @p i-th waiting RX packet (0 = head); used by the
     *  chain switch's head-of-line-blocking accounting. */
    const HmcPacketPtr &rxPeekAt(LinkDir dir, std::size_t i) const;

    /**
     * Drain the head packet from the RX buffer.  Tokens flow back to
     * the sender after the token-return latency.
     */
    HmcPacketPtr rxPop(LinkDir dir);

    /**
     * Packets ever popped from the RX buffer of @p d.  The buffer is
     * a FIFO, so an unchanged count means an unchanged head and an
     * unchanged prefix behind it.  Structural state, not a statistic:
     * a stats reset leaves it alone.
     */
    std::uint64_t rxPopped(LinkDir d) const { return dir(d).rxPops; }

    // ----- statistics -----
    std::uint64_t packetsSent(LinkDir dir) const;
    std::uint64_t flitsSent(LinkDir dir) const;
    std::uint64_t bytesSent(LinkDir dir) const;
    std::uint64_t crcRetries() const { return retries_.value(); }

    /** Serializer busy fraction over @p window ticks. */
    double utilization(LinkDir dir, Tick window) const;

    // ----- power & thermal -----

    /** Attach the power subsystem's probe (null = no accounting). */
    void setPowerProbe(PowerProbe *probe) { probe_ = probe; }

    /**
     * Thermal throttle: duty-cycle the serializer so the effective
     * bandwidth is the line rate divided by @p slowdown (1.0 = none).
     * After each packet the transmitter idles for (slowdown - 1) times
     * the packet's serialization occupancy.
     */
    void setThrottle(double slowdown);

    double throttleSlowdown() const { return slowdown_; }

  protected:
    void reportOwnStats(std::map<std::string, double> &out) const override;
    void resetOwnStats() override;

  private:
    struct Direction {
        Direction(Kernel &kernel, const std::string &name,
                  Tick flit_period, Tick wire_latency,
                  std::uint32_t tokens);

        Channel chan;
        TokenBucket tokens;
        std::uint32_t reserved = 0;
        std::deque<HmcPacketPtr> rxQ;
        std::uint64_t rxPops = 0;
        InlineFunction<void()> onTokensFree;
        InlineFunction<void()> onRxAvailable;
        Counter packets;
        Counter flits;
        Tick busyBase = 0;  // channel busy at last stats reset
        Tick throttleFreeAt = 0;  // duty-cycle gap end (throttling only)
    };

    LinkId id_;
    Params params_;
    Tick flitPeriod_;
    Direction dirs_[2];
    Rng rng_;
    Counter retries_;
    MetricSet obsMetrics_;
    PacketTracer *tracer_ = nullptr;
    PowerProbe *probe_ = nullptr;
    double slowdown_ = 1.0;
    LinkEndpointMode mode_ = LinkEndpointMode::Host;

    Direction &dir(LinkDir d) { return dirs_[static_cast<unsigned>(d)]; }
    const Direction &
    dir(LinkDir d) const
    {
        return dirs_[static_cast<unsigned>(d)];
    }

    void transmit(LinkDir d, const HmcPacketPtr &pkt, Tick earliest);
    void arrive(LinkDir d, const HmcPacketPtr &pkt);
};

}  // namespace hmcsim

#endif  // HMCSIM_HMC_SERDES_LINK_H_
