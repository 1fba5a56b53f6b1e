/**
 * @file
 * A non-blocking, write-back, write-allocate, set-associative cache
 * with MOESI coherence, MSHRs (hit-under-miss and miss-under-miss),
 * LRU replacement, an optional strided prefetcher, and explicit
 * flush/invalidate maintenance operations.
 *
 * This is the "hardware-managed cache" accelerator memory interface of
 * the paper (Section III-D / IV-D): the accelerator datapath issues
 * accesses through a limited number of cache ports; hits complete in
 * hitLatency cycles; misses allocate an MSHR and fetch the line over
 * the snooping system bus, possibly supplied cache-to-cache by a MOESI
 * owner (e.g. the CPU's cache holding freshly produced input data).
 */

#ifndef GENIE_MEM_CACHE_HH
#define GENIE_MEM_CACHE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "mem/bus.hh"
#include "mem/coherence.hh"
#include "mem/packet.hh"
#include "sim/clocked.hh"
#include "sim/sim_object.hh"
#include "trace/tracer.hh"

namespace genie
{

class StridePrefetcher;

/** The cache model. */
class Cache : public SimObject, public BusClient, public Clocked
{
  public:
    struct Params
    {
        unsigned sizeBytes = 16 * 1024;
        unsigned lineBytes = 64;
        unsigned assoc = 4;
        /** Accelerator-side accesses accepted per cycle. */
        unsigned ports = 1;
        unsigned mshrs = 16;
        Cycles hitLatency = 1;
        /** Extra cycles from line fill to target response. */
        Cycles responseLatency = 1;
        bool prefetchEnabled = false;
        /** Lines ahead a prefetch stream runs. */
        unsigned prefetchDegree = 2;
        /** Figure-7 "processing time" mode: every access hits. */
        bool perfect = false;
    };

    /** Completion callback: (reqId, wasHit). */
    using AccessCallback =
        std::function<void(std::uint64_t reqId, bool hit)>;

    Cache(std::string name, EventQueue &eq, ClockDomain domain,
          SystemBus &bus, Params params);
    ~Cache() override;

    /** Install the demand-access completion callback. */
    void setCallback(AccessCallback cb) { callback = std::move(cb); }

    /** Why an access could not be accepted this cycle. */
    enum class Reject : std::uint8_t
    {
        None,       ///< accepted
        Ports,      ///< per-cycle port budget exhausted
        Mshrs,      ///< no MSHR available for a new miss
    };

    struct AccessOutcome
    {
        Reject reject = Reject::None;
        /** Valid when accepted: whether the access hit. */
        bool hit = false;
    };

    /**
     * Accelerator-side timing access. When accepted, the callback fires
     * once the access completes. @p streamId feeds the prefetcher
     * (use the accessed array's id).
     */
    AccessOutcome access(Addr addr, unsigned size, bool isWrite,
                         std::uint64_t reqId, int streamId);

    /** True if a new access could be accepted this cycle (port check
     * only; an actual miss may still be rejected for MSHRs). */
    bool portAvailable() const;

    // BusClient interface.
    void recvResponse(const Packet &pkt) override;
    SnoopResult recvSnoop(const Packet &pkt) override;

    /**
     * Functionally install lines covering [base, base+len) (used to
     * model data the CPU produced before offload). No bus traffic.
     */
    void prefill(Addr base, std::uint64_t len, bool dirty);

    /** Functionally write back + invalidate a range.
     * @return number of dirty lines that required writeback. */
    unsigned flushRange(Addr base, std::uint64_t len);

    /** Functionally invalidate a range.
     * @return number of lines invalidated. */
    unsigned invalidateRange(Addr base, std::uint64_t len);

    /** Look up the coherence state of the line containing @p addr. */
    CoherenceState lineState(Addr addr) const;

    /** Any misses or writebacks still in flight? */
    bool hasOutstanding() const;

    /** Live MSHRs (demand + prefetch), for watchdog diagnostics. */
    std::size_t outstandingMisses() const { return liveMshrs; }

    unsigned lineBytes() const { return params.lineBytes; }
    unsigned sizeBytes() const { return params.sizeBytes; }
    unsigned numPorts() const { return params.ports; }
    unsigned assoc() const { return params.assoc; }

    double missRate() const;

  private:
    struct Line
    {
        Addr tag = 0;
        CoherenceState state = CoherenceState::Invalid;
        std::uint64_t lastUse = 0;
        bool hasPendingMshr = false;
        bool wasPrefetched = false;
    };

    /** One miss status holding register. Slots are reused, so a
     * fresh MSHR keeps its targets' capacity. */
    struct Mshr
    {
        /** Bus reqId of the outstanding request; 0 marks a free
         * slot (bus reqIds start at 1). */
        std::uint64_t reqId = 0;
        Addr lineAddr = 0;
        bool wantExclusive = false;
        bool isUpgrade = false;
        bool isPrefetch = false;
        /** Demand reqIds waiting on the fill. */
        std::vector<std::uint64_t> targets;
        /** Reissues performed after error responses. */
        unsigned retries = 0;
        /** Tick the miss went out on the bus (for latency stats). */
        Tick issueTick = 0;
        /** Open trace span covering this miss's lifetime. */
        TraceSpanId traceSpan = invalidTraceSpan;
    };

    /** One in-flight writeback and the reissues it took so far. */
    struct Writeback
    {
        std::uint64_t reqId;
        unsigned retries;
    };

    Addr lineAddr(Addr addr) const { return alignDown(addr, params.lineBytes); }

    /** The first of the @c assoc ways of @p line_addr's set. */
    Line *setOf(Addr line_addr);

    Line *findLine(Addr line_addr);
    const Line *findLine(Addr line_addr) const;

    /** Choose a victim way in the set of @p line_addr; may write back. */
    Line &allocateLine(Addr line_addr);

    /** Account a tag+data array access and bump LRU state. */
    void touch(Line &line);

    /**
     * Change @p line's coherence state, asserting the edge is one the
     * MOESI table defines (see mem/coherence.hh). All state writes go
     * through here so an illegal transition panics at the site that
     * introduced it.
     */
    void transition(Line &line, CoherenceState to, CoherenceEvent ev);

    /** Handle a demand miss: allocate/append MSHR, issue bus request.
     * @return false if no MSHR was available. */
    bool handleMiss(Addr line_addr, bool isWrite, std::uint64_t reqId,
                    bool isPrefetch);

    /** The live MSHR waiting on bus reqId @p reqId, or null. */
    Mshr *findMshr(std::uint64_t reqId);

    /** The live MSHR for line @p line_addr, or null. */
    Mshr *mshrForLine(Addr line_addr);

    /** Return @p mshr's slot to the free pool. */
    void freeMshr(Mshr &mshr);

    /** Remove in-flight writeback @p reqId (it must exist).
     * @return the reissues it took so far. */
    unsigned takeWriteback(std::uint64_t reqId);

    /** Send the bus request for a fresh MSHR. */
    void issueMshr(const Mshr &mshr);

    /** Handle an ErrorResp: reissue the MSHR or writeback under the
     * bounded-backoff retry policy, or fail the run when the budget
     * is exhausted. */
    void handleErrorResponse(const Packet &pkt);

    /** Evict (and possibly write back) @p line. */
    void evict(Line &line, Addr line_addr);

    /** Raw-dispatch completions: @p reqId hit, or its fill arrived. */
    static void respondHit(void *self, std::uint64_t reqId);
    static void respondFill(void *self, std::uint64_t reqId);

    friend class StridePrefetcher;
    /** Prefetcher hook: try to fetch @p line_addr into the cache. */
    void tryPrefetch(Addr line_addr);

    Params params;
    SystemBus &bus;
    BusPortId busPort = invalidBusPort;
    AccessCallback callback;

    /** The tag array: numSets sets of assoc ways, set-major. Both
     * the line size and the set count are powers of two, so a line's
     * set is a shift and a mask. */
    std::vector<Line> lines;
    unsigned lineShift = 0;
    Addr setMask = 0;
    std::uint64_t useCounter = 0;

    // Outstanding transactions, keyed by our own bus reqIds.
    std::uint64_t nextBusReqId = 1;
    /** The MSHR file: at most params.mshrs slots, grown on demand,
     * searched by reqId or by line. */
    std::vector<Mshr> mshrs;
    std::size_t liveMshrs = 0;
    /** In-flight writebacks, kept to retry one whose WriteResp came
     * back as an error. */
    std::vector<Writeback> writebacks;

    // Per-cycle port accounting.
    mutable Cycles portCycleStamp = 0;
    mutable unsigned portsUsedThisCycle = 0;

    std::unique_ptr<StridePrefetcher> prefetcher;

    Stat &statHits;
    Stat &statMisses;
    Stat &statReads;
    Stat &statWrites;
    Stat &statEvictions;
    Stat &statWritebacks;
    Stat &statUpgrades;
    Stat &statMshrCoalesced;
    Stat &statPrefetches;
    Stat &statPrefetchHits;
    Stat &statSnoopsServiced;
    Stat &statSnoopInvalidations;
    Stat &statTagAccesses;
    Stat &statDataAccesses;
    /** Error responses received (injected faults). */
    Stat &statErrors;
    /** Requests reissued after an error response. */
    Stat &statRetries;
    /** Requests abandoned after exhausting the retry budget. */
    Stat &statRetryExhausted;
    /** Demand miss lifetime (issue to fill), in nanoseconds. */
    Distribution &statMissLatency;
};

} // namespace genie

#endif // GENIE_MEM_CACHE_HH
