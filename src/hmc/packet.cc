#include "hmc/packet.h"

#include "common/log.h"
#include "hmc/packet_pool.h"

namespace hmcsim {

namespace {

PacketId g_next_packet_id = 1;

PacketId
nextPacketId()
{
    return g_next_packet_id++;
}

/** Packet + shared_ptr control block in one (recycled) allocation. */
template <typename... Args>
HmcPacketPtr
allocPacket(Args &&...args)
{
    return std::allocate_shared<HmcPacket>(PacketPoolAllocator<HmcPacket>{},
                                           std::forward<Args>(args)...);
}

}  // namespace

std::string
toString(HmcCmd cmd)
{
    switch (cmd) {
      case HmcCmd::Read: return "READ";
      case HmcCmd::Write: return "WRITE";
      case HmcCmd::ReadResponse: return "RD_RS";
      case HmcCmd::WriteResponse: return "WR_RS";
      case HmcCmd::Flow: return "FLOW";
    }
    return "?";
}

void
validateDataBytes(std::uint32_t data_bytes)
{
    if (data_bytes < 16 || data_bytes > kMaxPayloadBytes)
        fatal("packet payload must be 16.." +
              std::to_string(kMaxPayloadBytes) + " bytes (got " +
              std::to_string(data_bytes) + ")");
}

HmcPacket
HmcPacket::makeResponse() const
{
    if (!isRequest())
        panic("HmcPacket::makeResponse on a non-request packet");
    HmcPacket r;
    r.id = nextPacketId();
    r.cmd = cmd == HmcCmd::Read ? HmcCmd::ReadResponse
                                : HmcCmd::WriteResponse;
    r.addr = addr;
    r.tag = tag;
    r.port = port;
    r.link = link;
    r.dataBytes = dataBytes;
    r.vault = vault;
    r.cube = cube;
    r.host = host;
    r.reqHops = reqHops;
    r.createdAt = createdAt;
    r.linkTxAt = linkTxAt;
    r.chainIngressAt = chainIngressAt;
    r.cubeArriveAt = cubeArriveAt;
    r.vaultArriveAt = vaultArriveAt;
    r.dramStartAt = dramStartAt;
    r.dataReadyAt = dataReadyAt;
    r.traceId = traceId != 0 ? traceId : id;
    return r;
}

HmcPacketPtr
HmcPacket::makeResponsePtr() const
{
    return allocPacket(makeResponse());
}

HmcPacketPtr
makeReadRequest(Addr addr, std::uint32_t data_bytes, PortId port)
{
    validateDataBytes(data_bytes);
    auto p = allocPacket();
    p->id = nextPacketId();
    p->cmd = HmcCmd::Read;
    p->addr = addr;
    p->dataBytes = data_bytes;
    p->port = port;
    return p;
}

HmcPacketPtr
makeWriteRequest(Addr addr, std::uint32_t data_bytes, PortId port)
{
    validateDataBytes(data_bytes);
    auto p = allocPacket();
    p->id = nextPacketId();
    p->cmd = HmcCmd::Write;
    p->addr = addr;
    p->dataBytes = data_bytes;
    p->port = port;
    return p;
}

}  // namespace hmcsim
