/**
 * @file
 * The shared system bus.
 *
 * Models the paper's SoC interconnect: a single half-duplex shared bus
 * with a configurable data width (32 or 64 bits in the paper's sweeps),
 * round-robin arbitration across attached agents, and snooping cache
 * coherence. Bandwidth is width/8 bytes per bus cycle; every packet
 * occupies the bus for one header cycle plus its data cycles, so
 * contention between agents (DMA engine, accelerator cache, CPU cache)
 * appears as queueing delay — the paper's "shared resource contention"
 * consideration.
 *
 * An `infiniteBandwidth` switch reduces every occupancy to a single
 * cycle; it implements the unlimited-bandwidth configuration of the
 * Burger-style latency/bandwidth decomposition used for Figure 7.
 */

#ifndef GENIE_MEM_BUS_HH
#define GENIE_MEM_BUS_HH

#include <deque>
#include <memory>
#include <vector>

#include "mem/packet.hh"
#include "mem/protocol_checker.hh"
#include "sim/clocked.hh"
#include "sim/sim_object.hh"
#include "sim/slot_table.hh"

namespace genie
{

/** Interface for request-initiating agents (caches, DMA engine). */
class BusClient
{
  public:
    virtual ~BusClient() = default;

    /** A response to one of this agent's requests arrived. */
    virtual void recvResponse(const Packet &pkt) = 0;

    /** Another agent's coherent request is being snooped. */
    virtual SnoopResult recvSnoop(const Packet &pkt)
    {
        (void)pkt;
        return {};
    }
};

/** Interface for the memory-side target (the DRAM controller). */
class BusTarget
{
  public:
    virtual ~BusTarget() = default;

    /** Handle a request; the target must eventually respond through
     * SystemBus::sendResponse for reads and writes. */
    virtual void recvRequest(const Packet &pkt) = 0;
};

/** The shared system bus. */
class SystemBus : public SimObject, public Clocked
{
  public:
    struct Params
    {
        /** Data width in bits (32 or 64 in the paper). */
        unsigned widthBits = 32;
        /** Arbitration + address cycles charged per packet. */
        Cycles headerCycles = 1;
        /** Unlimited-bandwidth mode for Figure 7 decomposition. */
        bool infiniteBandwidth = false;
    };

    SystemBus(std::string name, EventQueue &eq, ClockDomain domain,
              Params params);

    /** Attach a requesting agent. @p snooper: participates in
     * coherence snooping. */
    BusPortId attachClient(BusClient *client, bool snooper);

    /** Set the memory-side target covering the whole address map. */
    void setTarget(BusTarget *target) { _target = target; }

    /** Queue a request from @p src. */
    void sendRequest(BusPortId src, Packet pkt);

    /** Queue a response destined for pkt.src (used by the target). */
    void sendResponse(Packet pkt);

    unsigned widthBits() const { return params.widthBits; }
    unsigned bytesPerCycle() const { return params.widthBits / 8; }

    /** Total ticks during which the bus was occupied. */
    Tick busyTicks() const { return static_cast<Tick>(statBusyTicks.value()); }

    /**
     * Attach a runtime protocol checker (genie-verify) that audits
     * every request/response pairing crossing this bus. Enabled by
     * default in GENIE_CHECK_INVARIANTS builds; idempotent.
     */
    void enableProtocolChecker();

    /** The attached checker, or nullptr when auditing is off. */
    ProtocolChecker *protocolChecker() { return checker.get(); }

  private:
    /** Bus data-transfer occupancy for @p pkt, in bus cycles. */
    Cycles occupancyCycles(const Packet &pkt) const;

    /** Try to start the next transfer if the bus is free. */
    void arbitrate();

    /** Complete delivery of an in-flight packet. */
    void deliver(const Packet &pkt);

    void scheduleArbitration(Tick when);

    Params params;
    BusTarget *_target = nullptr;

    std::vector<BusClient *> clients;
    std::vector<bool> snoopers;

    // Responses get a dedicated queue with priority over requests to
    // avoid protocol deadlock; requests use per-port queues served
    // round-robin.
    std::deque<Packet> respQueue;
    std::vector<std::deque<Packet>> reqQueues;
    /** Packets across all of reqQueues. */
    std::size_t queuedRequests = 0;
    std::size_t rrNext = 0;

    /** Packets in flight to a bus.deliver or bus.snoopSupply event,
     * whose argument word is the slot. */
    SlotTable<Packet> inFlight;

    Tick busyUntil = 0;
    bool arbitrationScheduled = false;

    std::unique_ptr<ProtocolChecker> checker;

    Stat &statPackets;
    Stat &statDataBytes;
    Stat &statBusyTicks;
    Stat &statSnoops;
    Stat &statCacheToCache;
    /** Responses converted to ErrorResp NACKs by fault injection. */
    Stat &statErrors;
    /** Packets waiting (including the winner) at each arbitration. */
    Distribution &statQueueDepth;
};

} // namespace genie

#endif // GENIE_MEM_BUS_HH
