/**
 * @file
 * A DRAM controller with per-bank row buffers and row-hit-first
 * scheduling (FR-FCFS without the starvation corner cases).
 *
 * The paper's pipelined-DMA optimization chooses 4 KB (page-sized)
 * chunks specifically "to optimize for DRAM row buffer hits", so the
 * row buffer must be modeled for that design choice to matter.
 */

#ifndef GENIE_MEM_DRAM_HH
#define GENIE_MEM_DRAM_HH

#include <deque>
#include <vector>

#include "mem/bus.hh"
#include "mem/packet.hh"
#include "sim/clocked.hh"
#include "sim/sim_object.hh"
#include "sim/slot_table.hh"

namespace genie
{

/** The memory-side bus target. */
class DramCtrl : public SimObject, public BusTarget, public Clocked
{
  public:
    struct Params
    {
        unsigned numBanks = 8;
        /** Row (page) size per bank in bytes. */
        unsigned rowBytes = 2048;
        /** Precharge / activate / CAS latencies. */
        Tick tRp = 15 * tickPerNs;
        Tick tRcd = 15 * tickPerNs;
        Tick tCas = 15 * tickPerNs;
        /** Internal transfer time per 32 bytes of payload. */
        Tick tBurst32 = 5 * tickPerNs;
        /** Fixed controller pipeline latency. */
        Tick tCtrl = 10 * tickPerNs;
        /** Minimum gap between request issues (command bus). */
        Tick tIssue = 3 * tickPerNs;
        /** Zero-latency mode for idealized studies. */
        bool perfect = false;
    };

    DramCtrl(std::string name, EventQueue &eq, ClockDomain domain,
             SystemBus &bus, Params params);

    void recvRequest(const Packet &pkt) override;

    double rowHitRate() const;

  private:
    struct Request
    {
        Packet pkt;
        Tick arrival;
    };

    struct Bank
    {
        bool rowOpen = false;
        Addr openRow = 0;
        /** Bank busy (servicing a burst) until this tick. */
        Tick readyAt = 0;
    };

    unsigned bankIndex(Addr addr) const;
    Addr rowIndex(Addr addr) const;

    /** Start servicing queued requests whose banks are free; banks
     * operate in parallel behind a shared command-issue port. */
    void trySchedule();

    /** Arrange for trySchedule to run at @p when (keeps at most one
     * pending scheduler event). */
    void kick(Tick when);

    /** Finish one request: respond via the bus. */
    void finish(const Packet &pkt);

    Params params;
    SystemBus &bus;
    std::vector<Bank> banks;
    std::deque<Request> queue;
    /** Requests in service, waiting for their dram.finish event,
     * whose argument word is the slot. */
    SlotTable<Packet> inService;
    Tick nextIssueAt = 0;
    Tick pendingKickAt = maxTick;

    Stat &statReads;
    Stat &statWrites;
    Stat &statRowHits;
    Stat &statRowMisses;
    Stat &statQueueTicks;
    /** Reads completed with an injected uncorrectable error. */
    Stat &statReadErrors;
};

} // namespace genie

#endif // GENIE_MEM_DRAM_HH
