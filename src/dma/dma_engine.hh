/**
 * @file
 * The streaming engine: the DMA engine (Section III-C) and, in its
 * coherent mode, the accelerator coherency port (Genie-Iface).
 *
 * DMA mode is a software-managed bulk-transfer engine: the driver
 * constructs a chain of transfer descriptors (source, destination,
 * length) and writes the head pointer into the engine's control
 * register. The engine fetches descriptors from memory one by one and
 * streams each segment over the system bus in cache-line-sized beats,
 * keeping a bounded window of beats in flight to cover memory latency.
 * Every transaction is charged a fixed setup delay (40 cycles in the
 * paper: metadata reads, the one-way CPU initiation latency, and
 * driver housekeeping). Stores issue plain WriteReq, so software must
 * flush and invalidate the CPU caches around the transfer.
 *
 * Coherent mode is a one-way-coherent bus agent: its loads and stores
 * snoop the CPU cache, but nothing snoops it (the engine keeps no
 * cache of its own). Loads issue ReadShared — a dirty CPU line is
 * supplied cache-to-cache without a flush ever running; misses fall
 * through to DRAM. Stores issue WriteInvalidate, which drops every
 * cached copy of the target line so the CPU can never read data the
 * accelerator has since overwritten. There is no descriptor chain to
 * fetch; the caller sets a doorbell-sized setup delay instead.
 *
 * Both modes share the FIFO of transactions, the beat window, and the
 * fault path: a faulty beat (FaultSite::DmaBeat, or AcpSnoop when
 * coherent) retries with the shared bounded-exponential backoff and
 * fails the transaction when the budget is exhausted. Per-beat
 * completion callbacks drive the full/empty ready bits for
 * DMA-triggered compute; transactions are serviced strictly in order,
 * which models the paper's "serial data arrival" effect.
 */

#ifndef GENIE_DMA_DMA_ENGINE_HH
#define GENIE_DMA_DMA_ENGINE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "fault/fault_config.hh"
#include "mem/bus.hh"
#include "mem/packet.hh"
#include "sim/clocked.hh"
#include "sim/interval_set.hh"
#include "sim/sim_object.hh"
#include "trace/tracer.hh"

namespace genie
{

class DmaEngine : public SimObject, public BusClient, public Clocked
{
  public:
    struct Params
    {
        /** Beat (chunk) size; matches the cache-line granularity of
         * flushes and ready bits, so a coherent beat snoops exactly
         * one line. */
        unsigned beatBytes = 64;
        /** Max in-flight beats (covers snoop and DRAM latency). */
        unsigned maxOutstanding = 8;
        /** Fixed per-transaction setup delay, in engine cycles. */
        Cycles setupCycles = 40;
        /** Coherent (ACP) mode: no descriptor fetch, stores
         * invalidate cached copies, faults at AcpSnoop, spans and
         * events under the iface layer, snoop outcomes counted. */
        bool coherent = false;
    };

    enum class Direction : std::uint8_t
    {
        MemToAccel, ///< dmaLoad, or a coherent load burst
        AccelToMem, ///< dmaStore, or a coherent (invalidating) store
    };

    /** One descriptor: a contiguous region of one accelerator array. */
    struct Segment
    {
        int arrayId = 0;
        /** Bus (simulated physical) address of the region. */
        Addr busAddr = 0;
        /** Offset of the region within the accelerator array. */
        Addr arrayOffset = 0;
        std::uint64_t len = 0;
    };

    /** Called as each beat lands in the accelerator's local memory. */
    using BeatCallback = std::function<void(int arrayId, Addr arrayOffset,
                                            unsigned len)>;
    /** Called when the transaction ends. @p ok is false when a beat
     * (or descriptor fetch) exhausted its retry budget and the
     * transaction was abandoned. */
    using DoneCallback = std::function<void(bool ok)>;

    DmaEngine(std::string name, EventQueue &eq, ClockDomain domain,
              SystemBus &bus, Params params);

    /**
     * Enqueue one transaction (a descriptor chain, or a coherent
     * burst). Transactions are serviced in FIFO order, one at a time.
     */
    void startTransaction(Direction dir, std::vector<Segment> segments,
                          BeatCallback onBeat, DoneCallback onDone);

    bool idle() const { return !active && pending.empty(); }

    /** Intervals during which a transaction was in progress. */
    const IntervalSet &busyIntervals() const { return busy; }

    double bytesTransferred() const { return statBytes.value(); }

    /** Coherent load beats answered cache-to-cache by a snooped dirty
     * CPU line (the coherence win the ACP exists for); 0 in DMA
     * mode. */
    double snoopHits() const
    {
        return statSnoopHits ? statSnoopHits->value() : 0.0;
    }

    /** Beats (and descriptor fetches) currently in flight — includes
     * errored beats waiting out their retry backoff (watchdog
     * diagnostic hook). */
    unsigned inFlightBeats() const { return outstanding; }

    // BusClient interface.
    void recvResponse(const Packet &pkt) override;

  private:
    struct Transaction
    {
        Direction dir;
        std::vector<Segment> segments;
        BeatCallback onBeat;
        DoneCallback onDone;
    };

    struct BeatInfo
    {
        int arrayId;
        Addr arrayOffset;
        unsigned len;
        bool isDescriptor;
        /** Bus address of the beat, kept for reissue after errors. */
        Addr busAddr = 0;
        /** Reissues performed after error responses. */
        unsigned retries = 0;
    };

    /** Begin the next queued transaction, if any. */
    void startNext();

    /** Fetch the descriptor for the current segment (DMA mode), then
     * stream it. */
    void beginSegment();

    /** Issue beats while the outstanding window has room. */
    void pump();

    /** All beats of the segment done: advance to the next segment. */
    void finishSegment();

    void finishTransaction(bool ok = true);

    /** Re-send a beat that errored, after its backoff elapsed. */
    void reissue(BeatInfo info);

    /** If the failing transaction's window has drained, abandon it
     * and move on to the next queued transaction. */
    void maybeAbort();

    /** Send one beat (or descriptor fetch) and track it by id. */
    void send(const BeatInfo &info);

    Params params;
    SystemBus &bus;
    BusPortId busPort = invalidBusPort;

    // Per-mode constants, fixed by the constructor.
    const TraceCategory category;
    const char *const loadSpan;
    const char *const storeSpan;
    /** The setup window's span name; null when coherent. */
    const char *const setupSpan;
    const char *const setupKind;
    const char *const retryKind;
    const MemCmd storeCmd;
    const FaultSite beatFault;

    std::deque<Transaction> pending;
    bool active = false;
    Transaction current;
    std::size_t segIndex = 0;
    std::uint64_t segIssued = 0;   ///< bytes issued in current segment
    std::uint64_t segCompleted = 0;///< bytes completed in current segment
    unsigned outstanding = 0;
    Tick txnStart = 0;
    /** Current transaction exhausted a retry budget; it is draining
     * its window and will complete with ok=false. */
    bool txnFailed = false;

    // Open trace spans (invalid when tracing is off).
    TraceSpanId txnSpan = invalidTraceSpan;   ///< whole transaction
    TraceSpanId chunkSpan = invalidTraceSpan; ///< current segment burst
    TraceSpanId descSpan = invalidTraceSpan;  ///< descriptor fetch

    std::uint64_t nextReqId = 1;
    std::unordered_map<std::uint64_t, BeatInfo> inFlight;

    IntervalSet busy;

    // Stats, in registration order. The pointers are null in the mode
    // that does not register them.
    Stat &statTransactions;
    Stat *statSegments;           ///< DMA mode
    Stat &statBeats;
    Stat &statBytes;
    Stat *statDescriptorFetches;  ///< DMA mode
    Stat *statSnoopHits;          ///< coherent mode
    Stat *statMemFills;           ///< coherent mode
    Stat *statWriteInvalidations; ///< coherent mode
    /** Beats observed failed (injected faults). */
    Stat &statErrors;
    /** Beats reissued after an error. */
    Stat &statRetries;
    /** Transactions failed after exhausting the retry budget. */
    Stat &statRetryExhausted;
};

} // namespace genie

#endif // GENIE_DMA_DMA_ENGINE_HH
