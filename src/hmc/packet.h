/**
 * @file
 * HMC transaction-layer packets and the Table-I flit accounting.
 *
 * Every packet carries one flit of header+tail overhead; data payloads
 * add ceil(bytes/16) flits.  Read requests and write responses carry no
 * data; write requests and read responses carry the payload.
 */

#ifndef HMCSIM_HMC_PACKET_H_
#define HMCSIM_HMC_PACKET_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/types.h"

namespace hmcsim {

/** Transaction-layer packet commands. */
enum class HmcCmd {
    Read,
    Write,
    ReadResponse,
    WriteResponse,
    /** Flow-control packet (TRET/NULL); no data. */
    Flow,
};

std::string toString(HmcCmd cmd);

struct HmcPacket {
    PacketId id = 0;
    HmcCmd cmd = HmcCmd::Read;
    Addr addr = 0;
    TagId tag = kTagInvalid;
    PortId port = 0;
    LinkId link = 0;

    /**
     * Payload size in bytes.  For Read this is the *requested* size
     * (the request itself carries no data).
     */
    std::uint32_t dataBytes = 0;

    /** Filled in after address decode. */
    VaultId vault = 0;

    /** Destination cube (the CUB field); 0 without chaining. */
    CubeId cube = 0;

    /** Issuing host controller; responses return to this host's
     *  chain entry cube (0 in the classic single-host system). */
    HostId host = 0;

    /** Inter-cube pass-through forwards taken by the request. */
    std::uint32_t reqHops = 0;

    /** Inter-cube pass-through forwards taken by the response. */
    std::uint32_t respHops = 0;

    /** Non-minimal chain-routing deviations taken (adaptive policy). */
    std::uint8_t chainMisroutes = 0;

    /** Rotational direction lock a chain misroute imposed; 0 = none
     *  (see kChainDir* in chain/routing_policy.h). */
    std::uint8_t chainDirLock = 0;

    // --- latency decomposition timestamps (ticks) ---
    Tick createdAt = 0;       ///< generated in the FPGA port
    Tick linkTxAt = 0;        ///< first flit onto the external link
    Tick chainIngressAt = 0;  ///< received by the *first* cube's link layer
    Tick cubeArriveAt = 0;    ///< received by the destination cube
    Tick vaultArriveAt = 0;   ///< delivered to the vault controller
    Tick dramStartAt = 0;     ///< DRAM command sequence committed
    Tick dataReadyAt = 0;     ///< DRAM data transferred
    Tick respInjectAt = 0;    ///< response entered the internal NoC
    Tick respHostLinkAt = 0;  ///< response landed in the host link's RX
    Tick hostArriveAt = 0;    ///< response drained by the host controller

    /**
     * Lifecycle identity for the packet tracer: a response inherits
     * its request's id here, so the whole inject->eject lifecycle
     * shares one trace lane.  0 = this packet's own id.
     */
    PacketId traceId = 0;

    /** Flits on the wire, including one flit of header/tail. */
    std::uint32_t flits() const { return flitsFor(cmd, dataBytes); }

    /** Bytes on the wire. */
    std::uint32_t bytes() const { return flits() * kFlitBytes; }

    bool
    isRequest() const
    {
        return cmd == HmcCmd::Read || cmd == HmcCmd::Write;
    }

    bool
    isResponse() const
    {
        return cmd == HmcCmd::ReadResponse || cmd == HmcCmd::WriteResponse;
    }

    bool hasData() const { return dataFlits() != 0; }

    /** Payload flits for any (command, payload) pair (no overhead). */
    static constexpr std::uint32_t
    dataFlitsFor(HmcCmd cmd, std::uint32_t data_bytes)
    {
        return (cmd == HmcCmd::Write || cmd == HmcCmd::ReadResponse)
                   ? (data_bytes + kFlitBytes - 1) / kFlitBytes
                   : 0;
    }

    /** Payload flits only (no overhead). */
    std::uint32_t dataFlits() const { return dataFlitsFor(cmd, dataBytes); }

    /** Table I flit count for any (command, payload) pair. */
    static constexpr std::uint32_t
    flitsFor(HmcCmd cmd, std::uint32_t data_bytes)
    {
        return 1 + dataFlitsFor(cmd, data_bytes);
    }

    /**
     * Construct the response matching this request (copies identity
     * fields).  Panics when called on a non-request.
     */
    HmcPacket makeResponse() const;

    /** makeResponse() in a pool-allocated shared_ptr (the hot path). */
    std::shared_ptr<HmcPacket> makeResponsePtr() const;
};

using HmcPacketPtr = std::shared_ptr<HmcPacket>;

/** Largest payload the HMC 1.1 spec carries (8 data flits). */
constexpr std::uint32_t kMaxPayloadBytes = 128;

/** Flits of the largest packet: a full-payload write request (or read
 *  response).  Every flit buffer must hold one. */
constexpr std::uint32_t kMaxPacketFlits =
    HmcPacket::flitsFor(HmcCmd::Write, kMaxPayloadBytes);

/**
 * Allocate a read request.  @p data_bytes must be in [16,
 * kMaxPayloadBytes] -- the payload range the HMC 1.1 spec supports
 * (1..8 flits).
 */
HmcPacketPtr makeReadRequest(Addr addr, std::uint32_t data_bytes,
                             PortId port);

/** Allocate a write request of @p data_bytes payload. */
HmcPacketPtr makeWriteRequest(Addr addr, std::uint32_t data_bytes,
                              PortId port);

/** Validate a payload size; raises fatal() when out of spec. */
void validateDataBytes(std::uint32_t data_bytes);

}  // namespace hmcsim

#endif  // HMCSIM_HMC_PACKET_H_
