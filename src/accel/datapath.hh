/**
 * @file
 * The accelerator datapath: a resource-constrained dataflow scheduler
 * over the DDDG, following Aladdin's execution model plus the paper's
 * system-level extensions:
 *
 *  - N datapath lanes; loop iteration i runs on lane (i mod N); a
 *    wave of N consecutive iterations executes concurrently and lanes
 *    synchronize at a barrier before the next wave (Section IV-D).
 *  - per-lane functional units (pipelined except the divider) with
 *    per-cycle issue limits,
 *  - scratchpad mode: partitioned banks with per-cycle port limits,
 *    optional full/empty ready bits that stall a lane until DMA fills
 *    the accessed line (DMA-triggered compute, Section IV-B2),
 *  - cache mode: accesses translate through the Aladdin TLB and issue
 *    to the accelerator cache; a miss stalls only the issuing lane
 *    (hit-under-miss via MSHRs); other lanes keep running,
 *  - a `perfectMemory` switch (all memory ops single-cycle) for the
 *    Figure-7 processing-time decomposition.
 */

#ifndef GENIE_ACCEL_DATAPATH_HH
#define GENIE_ACCEL_DATAPATH_HH

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "accel/dddg.hh"
#include "accel/trace.hh"
#include "mem/cache.hh"
#include "mem/full_empty.hh"
#include "mem/scratchpad.hh"
#include "mem/tlb.hh"
#include "sim/clocked.hh"
#include "sim/interval_set.hh"
#include "sim/sim_object.hh"

namespace genie
{

class Datapath : public SimObject, public Clocked
{
  public:
    struct Params
    {
        unsigned lanes = 1;
        /** Per-lane, per-cycle issue limits by FU class. */
        unsigned intAluPerLane = 2;
        unsigned intMulPerLane = 1;
        unsigned fpAddPerLane = 1;
        unsigned fpMulPerLane = 1;
        unsigned otherPerLane = 2;
        /** Per-lane memory ops issued per cycle (bank/cache port
         * limits apply on top of this). */
        unsigned memOpsPerLane = 2;
        /** Figure-7 processing-time mode. */
        bool perfectMemory = false;
    };

    enum class MemMode : std::uint8_t
    {
        ScratchpadDma,
        Cache,
    };

    using DoneCallback = std::function<void()>;

    Datapath(std::string name, EventQueue &eq, ClockDomain domain,
             const Trace &trace, const Dddg &dddg, Params params,
             MemMode mode);

    /**
     * Scratchpad mode wiring. @p spadIds maps trace array ids to
     * scratchpad array ids; @p feIds maps trace array ids to
     * full/empty array ids (or empty to disable ready bits).
     */
    void attachScratchpad(Scratchpad *spad, std::vector<int> spadIds,
                          FullEmptyBits *fe, std::vector<int> feIds);

    /**
     * Cache mode wiring. @p arrayVBase gives each trace array's
     * simulated-virtual base address; private-scratch arrays instead
     * use the scratchpad (pass @p spad non-null if any exist).
     */
    void attachCache(Cache *cache, AladdinTlb *tlb,
                     std::vector<Addr> arrayVBase, Scratchpad *spad,
                     std::vector<int> spadIds);

    /** Begin executing the trace now. */
    void start(DoneCallback onDone);

    bool running() const { return active; }

    /** Cycles from start() to completion. */
    Cycles executedCycles() const { return endCycle - startCycle; }

    /** Intervals where at least one op was executing (the "compute"
     * activity for the paper's runtime breakdowns). */
    const IntervalSet &computeBusy() const { return busy; }

    /** Issued op counts per FU class (power model input). */
    const std::array<std::uint64_t, 6> &fuOpCounts() const
    {
        return fuOps;
    }

    double memStallCycles() const { return statMemStallCycles.value(); }

    /** Lane @p lane's ready nodes, in issue-scan (FIFO) order. The
     * view is invalidated by the next event. */
    std::span<const NodeId>
    readyNodes(unsigned lane) const
    {
        const LaneState &l = lanes.at(lane);
        return std::span<const NodeId>(l.ready).subspan(l.head);
    }

  private:
    /**
     * What an issue attempt checks, decided once per node by start().
     * The first six values are the compute classes, in FuKind order.
     */
    enum class IssueClass : std::uint8_t
    {
        IntAlu,
        IntMul,
        FpAdd,
        FpMul,
        FpDiv,
        Other,
        SpadAccess,   ///< scratchpad port, bank precomputed
        ReadyBitLoad, ///< scratchpad load gated by a full/empty bit
        CacheAccess,  ///< TLB + accelerator cache
        PerfectMem,   ///< Figure-7 single-cycle memory
    };

    /**
     * Per-lane, per-cycle issue budget, one slot per FuKind then one
     * shared by every memory class. The FpDiv slot is the unpipelined
     * divider: 1 while it is idle, else 0.
     */
    static constexpr std::size_t memSlot = 6;
    using IssueBudget = std::array<unsigned, memSlot + 1>;

    static constexpr std::size_t
    budgetSlot(IssueClass c)
    {
        auto i = static_cast<std::size_t>(c);
        return i < memSlot ? i : memSlot;
    }

    /** The window-index mask after the budget slots': ready-bit loads
     * not yet seen full. */
    static constexpr std::size_t readyBitIndex = memSlot + 1;

    static constexpr std::size_t
    indexOf(IssueClass c)
    {
        return c == IssueClass::ReadyBitLoad ? readyBitIndex
                                             : budgetSlot(c);
    }

    /** Everything the issue and completion paths need about a node,
     * so they never reload its TraceOp. */
    struct NodeInfo
    {
        IssueClass cls = IssueClass::Other;
        std::uint8_t latency = 1; ///< cycles
        bool isWrite = false;
        std::int16_t spadArray = -1;
        std::int16_t feArray = -1;
        std::uint32_t lane = 0;
        std::uint32_t wave = 0;
        /** Scratchpad partition, as bankBase[spadArray] + bank. */
        std::uint32_t flatBank = 0;
        std::uint32_t chunk = 0; ///< full/empty chunk
    };

    /** Number of ready-queue entries each lane may examine per cycle
     * (the dataflow scheduling window). One bit of a uint64_t per
     * entry indexes it. */
    static constexpr unsigned issueScanWindow = 64;

    struct LaneState
    {
        /** Ready nodes in FIFO order; [0, head) is consumed. */
        std::vector<NodeId> ready;
        std::size_t head = 0;
        /**
         * Window index. Bit k of index[s] is set when ready[head + k]
         * issues from budget slot s, or, for s == readyBitIndex, when
         * it is a ready-bit load whose bit has not yet been seen full.
         * Each of the first issueScanWindow entries is in exactly one
         * mask.
         */
        std::array<std::uint64_t, readyBitIndex + 1> index{};
        /** Unresolved cache work (TLB walks in progress + outstanding
         * misses). The lane stalls while this is non-zero; hits do
         * not contribute (hit-under-miss is across lanes). */
        unsigned pendingMem = 0;
        /** Waiting on a full/empty ready bit. */
        bool blockedOnReadyBit = false;
        /** Divider is unpipelined: busy until this cycle. */
        Cycles divBusyUntil = 0;
        /** Issue slots left this cycle. */
        IssueBudget left{};
        /**
         * Stuck-lane memo, set when the last scan found every window
         * entry turned away by a spent resource: stuckConflicts bank
         * conflicts against the stuckBanks[0, numStuckBanks) distinct
         * flat banks, plus the cache ports if stuckOnCachePorts. While
         * no push lands in the window, a scan finding all of those
         * spent again would count the same conflicts and change
         * nothing else.
         */
        bool stuck = false;
        bool stuckOnCachePorts = false;
        std::uint8_t stuckConflicts = 0;
        std::uint8_t numStuckBanks = 0;
        std::array<std::uint32_t, issueScanWindow> stuckBanks{};

        bool blocked() const { return pendingMem > 0 || blockedOnReadyBit; }
        bool hasReady() const { return head < ready.size(); }
    };

    /**
     * Nodes one tick() issued with one latency. They retire together,
     * in issue order, from a single accel.nodeComplete event.
     */
    struct CompletionBatch
    {
        std::vector<NodeId> nodes;
        /** Each node's flow origin; filled only with a Tracer. */
        std::vector<std::uint64_t> origins;
    };

    void tick();
    void scheduleTick();

    /** Outcome of an issue attempt. */
    enum class IssueResult : std::uint8_t
    {
        Issued,   ///< dispatched (or handed to the memory system)
        Skip,     ///< spent issue budget; younger ready ops may issue
        Spent,    ///< Skip on a spent bank (counted) or cache port
        StopLane, ///< lane-stalling condition (empty ready bit)
    };

    /** Fill the per-node issue records for this run's wiring. */
    void buildNodeInfo();

    /** One cycle of dataflow issue on lane @p l. */
    void scanLane(LaneState &lane, unsigned l);

    /** Whether lane @p lane's memo holds: every bank (and the cache
     * ports) it recorded is spent this cycle. */
    bool stillStuck(const LaneState &lane) const;

    /** Record the memo after a scan that found all @p examined
     * window entries, @p conflicts of them bank conflicts, Spent. */
    void recordStuck(LaneState &lane, std::size_t examined,
                     std::uint64_t conflicts);

    /** Report the conflicts counted since the last call to both the
     * datapath and the scratchpad stats (and the trace). */
    void flushConflicts();

    /** Drop the issued window positions @p issued from @p lane's
     * ready list and index, and index the entries that slide into the
     * window. */
    void compactIndex(LaneState &lane, std::uint64_t issued);

    /** Try to issue @p n, the window entry at position bit @p bit. */
    IssueResult tryIssue(NodeId n, std::uint64_t bit, LaneState &lane,
                         unsigned l);
    /** Issue a compute or perfect-memory op whose budget allows it. */
    void issueOp(NodeId n, LaneState &lane, unsigned l,
                 const NodeInfo &info);
    IssueResult tryIssueSpadAccess(NodeId n, unsigned lane,
                                   const NodeInfo &info);
    IssueResult tryIssueCacheAccess(NodeId n, unsigned lane);
    IssueResult stallOnReadyBit(const NodeInfo &info, unsigned lane);

    /** Account an issued op: in flight, busy and traced for @p lat
     * cycles from this edge. */
    void beginExecution(unsigned lane, const char *what, Cycles lat);

    /** Add @p n to this tick's completion batch for @p lat, opening
     * (and scheduling) the batch if it is the first such node. */
    void scheduleCompletion(Cycles lat, NodeId n);
    void retireBatch(std::uint32_t b);

    /** Issue the translated cache access (retries on port/MSHR
     * rejection). */
    void sendCacheAccess(NodeId n, unsigned lane, Addr paddr);

    void onNodeComplete(NodeId n);
    void enqueueReady(NodeId n);
    /** Append @p n to its lane's ready list. If @p n lands inside the
     * scan window, index it and drop the lane's memo. */
    void pushReady(NodeId n);
    void advanceWave();
    void finishIfDrained();

    /** Refill every lane's issue budget when the cycle changes. */
    void resetCycleCounters();
    void refillBudgets(Cycles now);

    /** Mirror an issued node's execution interval into the trace
     * (tracks are per-lane so waves render as parallel strips). */
    void traceNodeSpan(unsigned lane, const char *what, Tick beginTick,
                       Tick endTick);

    const Trace &trace;
    const Dddg &dddg;
    Params params;
    MemMode mode;

    // Wiring.
    Scratchpad *spad = nullptr;
    std::vector<int> spadIds;
    FullEmptyBits *feBits = nullptr;
    std::vector<int> feIds;
    Cache *cache = nullptr;
    AladdinTlb *tlb = nullptr;
    std::vector<Addr> arrayVBase;

    // Execution state.
    bool active = false;
    DoneCallback onDone;
    std::vector<NodeInfo> nodes;
    std::vector<std::uint32_t> pendingParents;
    std::vector<LaneState> lanes;
    std::uint32_t currentWave = 0;
    std::uint32_t numWaves = 0;
    std::vector<std::uint32_t> waveRemaining;
    /** Nodes that became ready before their wave started. */
    std::vector<std::vector<NodeId>> earlyReady;
    std::size_t completedNodes = 0;
    std::size_t inFlightOps = 0;

    Cycles startCycle = 0;
    Cycles endCycle = 0;
    bool tickScheduled = false;
    bool drainCheckScheduled = false;
    /** Last tick at which tick() ran; issue happens at most once per
     * clock edge (completions arriving mid-cycle wake the next
     * edge). */
    Tick lastTickAt = maxTick;

    // Per-cycle issue state.
    Cycles cycleStamp = 0;
    /** Clock edge of the running tick(). */
    Tick issueTick = 0;
    /** Each lane's budget at the start of a cycle. */
    IssueBudget fullBudget{};
    /**
     * Per-cycle spent masks, cleared by refillBudgets(). A scratchpad
     * bank's byte (indexed by NodeInfo::flatBank) is set once its last
     * port is granted or a request to it conflicts; the cache byte is
     * set the first time portAvailable() fails. Within a cycle a port
     * never frees up, so a set byte answers for the component.
     */
    std::vector<std::uint8_t> bankSpent;
    /** Flat id of each scratchpad array's bank 0. */
    std::vector<std::uint32_t> bankBase;
    std::uint8_t cachePortsSpent = 0;
    /** Bank conflicts counted but not yet flushed to the stats. */
    std::uint64_t pendingConflicts = 0;

    // Completion batches: a pool recycled through freeBatches, and the
    // (latency, batch) pairs the running tick() has opened.
    std::vector<CompletionBatch> batches;
    std::vector<std::uint32_t> freeBatches;
    std::vector<std::pair<Cycles, std::uint32_t>> openBatches;

    IntervalSet busy;
    std::array<std::uint64_t, 6> fuOps{};

    /** Precomputed per-lane trace track names. */
    std::vector<std::string> laneTracks;

    Stat &statNodes;
    Stat &statCycles;
    Stat &statMemStallCycles;
    Stat &statReadyBitStalls;
    Stat &statBankConflicts;
    Stat &statCacheRejects;
};

} // namespace genie

#endif // GENIE_ACCEL_DATAPATH_HH
