#include "datapath.hh"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>

#include "sim/logging.hh"
#include "trace/tracer.hh"

namespace genie
{

Datapath::Datapath(std::string name, EventQueue &eq, ClockDomain domain,
                   const Trace &trace_, const Dddg &dddg_, Params p,
                   MemMode mode_)
    : SimObject(std::move(name)), Clocked(eq, domain), trace(trace_),
      dddg(dddg_), params(p), mode(mode_),
      statNodes(stats().add("nodes", "DDDG nodes executed")),
      statCycles(stats().add("cycles", "accelerator cycles to finish")),
      statMemStallCycles(stats().add("memStallCycles",
                                     "lane-cycles blocked on memory")),
      statReadyBitStalls(stats().add("readyBitStalls",
                                     "loads stalled on full/empty bits")),
      statBankConflicts(stats().add("bankConflicts",
                                    "scratchpad bank conflict retries")),
      statCacheRejects(stats().add("cacheRejects",
                                   "cache port/MSHR rejections"))
{
    if (params.lanes == 0)
        fatal("datapath needs at least one lane");
    // A zero issue width would leave its ops unissuable forever; the
    // scan also relies on every budget but the divider's being
    // non-zero at a lane's turn.
    if (params.intAluPerLane == 0 || params.intMulPerLane == 0 ||
        params.fpAddPerLane == 0 || params.fpMulPerLane == 0 ||
        params.otherPerLane == 0 || params.memOpsPerLane == 0)
        fatal("datapath issue widths must be at least 1 per lane");
    eq.registerStats(stats());
    fullBudget = {params.intAluPerLane, params.intMulPerLane,
                  params.fpAddPerLane,  params.fpMulPerLane,
                  1,                    params.otherPerLane,
                  params.memOpsPerLane};
    for (unsigned l = 0; l < params.lanes; ++l)
        laneTracks.push_back(format("%s.lane%u", this->name().c_str(), l));
}

void
Datapath::traceNodeSpan(unsigned lane, const char *what, Tick beginTick,
                        Tick endTick)
{
    if (Tracer *t = tracerFor(eventq, TraceCategory::Datapath)) {
        t->complete(TraceCategory::Datapath, laneTracks[lane], what,
                    beginTick, endTick);
    }
}

void
Datapath::attachScratchpad(Scratchpad *spad_, std::vector<int> spadIds_,
                           FullEmptyBits *fe, std::vector<int> feIds_)
{
    GENIE_ASSERT(mode == MemMode::ScratchpadDma,
                 "attachScratchpad in cache mode");
    GENIE_ASSERT(nodes.empty(), "datapath rewired after it started");
    spad = spad_;
    spadIds = std::move(spadIds_);
    feBits = fe;
    feIds = std::move(feIds_);
}

void
Datapath::attachCache(Cache *cache_, AladdinTlb *tlb_,
                      std::vector<Addr> vbase, Scratchpad *spad_,
                      std::vector<int> spadIds_)
{
    GENIE_ASSERT(mode == MemMode::Cache, "attachCache in DMA mode");
    GENIE_ASSERT(nodes.empty(), "datapath rewired after it started");
    cache = cache_;
    tlb = tlb_;
    arrayVBase = std::move(vbase);
    spad = spad_;
    spadIds = std::move(spadIds_);
    if (cache) {
        cache->setCallback([this](std::uint64_t reqId, bool hit) {
            auto n = static_cast<NodeId>(reqId);
            if (!hit) {
                // The miss kept its lane stalled until now; hits were
                // uncounted at accept time.
                LaneState &lane = lanes[nodes[n].lane];
                GENIE_ASSERT(lane.pendingMem > 0,
                             "miss completion with no pending access");
                --lane.pendingMem;
            }
            onNodeComplete(n);
            scheduleTick();
        });
    }
}

void
Datapath::start(DoneCallback done)
{
    GENIE_ASSERT(!active, "datapath already running");
    GENIE_ASSERT(!trace.ops.empty(), "empty trace");

    active = true;
    onDone = std::move(done);
    completedNodes = 0;
    inFlightOps = 0;
    currentWave = 0;
    startCycle = curCycle();
    lastTickAt = maxTick;

    // Later invocations keep the first one's records. The only field
    // a run changes is a ready-bit load's class, once its bit is seen
    // full, and bits never empty again.
    if (nodes.empty())
        lower();
    const auto parents = dddg.parentCounts();
    pendingParents.assign(parents.begin(), parents.end());
    waveRemaining = waveOps;
    earlyReady.assign(numWaves, {});

    lanes.assign(params.lanes, LaneState{});
    cycleStamp = curCycle();
    refillBudgets(cycleStamp);

    for (NodeId root : dddg.roots())
        enqueueReady(root);
    scheduleTick();
}

void
Datapath::lower()
{
    // The compute issue classes are FuKind values, so one index serves
    // the budget slot and the fuOps counter, and a DddgOp's compute
    // kind is its issue class.
    static_assert(
        static_cast<int>(IssueClass::IntAlu) ==
            static_cast<int>(FuKind::IntAlu) &&
        static_cast<int>(IssueClass::FpDiv) ==
            static_cast<int>(FuKind::FpDiv) &&
        static_cast<int>(IssueClass::Other) ==
            static_cast<int>(FuKind::Other) &&
        static_cast<std::size_t>(IssueClass::SpadAccess) == memSlot &&
        DddgOp::loadKind == memSlot);

    // Flat bank ids: every scratchpad array's banks, back to back.
    std::vector<std::uint32_t> bankBase;
    banks.clear();
    for (int a = 0; spad && static_cast<std::size_t>(a) < spad->numArrays();
         ++a) {
        bankBase.push_back(static_cast<std::uint32_t>(banks.size()));
        for (std::uint32_t p = 0; p < spad->arrayConfig(a).partitions; ++p)
            banks.push_back({a, p});
    }
    bankSpent.assign(banks.size(), 0);

    // In cache mode, arrays wired to the scratchpad (private
    // intermediates and register-promoted small constant tables)
    // bypass the cache.
    plans.assign(trace.arrays.size(), ArrayPlan{});
    for (std::size_t a = 0; a < plans.size(); ++a) {
        ArrayPlan &plan = plans[a];
        const bool mapped = spad && a < spadIds.size() && spadIds[a] >= 0;
        if (params.perfectMemory || (mode == MemMode::Cache && !mapped)) {
            plan.load = plan.store = params.perfectMemory
                                         ? IssueClass::PerfectMem
                                         : IssueClass::CacheAccess;
            plan.local = false;
            continue;
        }
        GENIE_ASSERT(mapped, "array '%s' not mapped to a scratchpad",
                     trace.arrays[a].name.c_str());
        const int id = spadIds[a];
        const Scratchpad::ArrayConfig &cfg = spad->arrayConfig(id);
        plan.wordBytes = cfg.wordBytes;
        plan.bankBase = bankBase[static_cast<std::size_t>(id)];
        plan.partitions = cfg.partitions;
        if (feBits && a < feIds.size() && feIds[a] >= 0) {
            plan.load = IssueClass::ReadyBitLoad;
            plan.feArray = feIds[a];
        }
    }

    // Iteration k holds the next iterationOps[k] nodes and runs on
    // lane k mod lanes in wave k / lanes.
    const auto iterationOps = dddg.iterationOps();
    const auto ops = dddg.ops();
    numWaves = static_cast<std::uint32_t>(
        divCeil(iterationOps.size(), params.lanes));
    waveOps.assign(numWaves, 0);
    nodes.assign(ops.size(), NodeInfo{});
    std::size_t i = 0;
    std::uint32_t lane = 0;
    std::uint32_t wave = 0;
    for (std::uint32_t count : iterationOps) {
        waveOps[wave] += count;
        for (const std::size_t end = i + count; i < end; ++i) {
            const DddgOp &op = ops[i];
            NodeInfo &info = nodes[i];
            info.lane = lane;
            info.wave = wave;
            if (op.kind < DddgOp::loadKind) {
                info.cls = static_cast<IssueClass>(op.kind);
                info.latency = static_cast<std::uint8_t>(
                    latencyOf(static_cast<FuKind>(op.kind)));
                continue;
            }
            const ArrayPlan &plan =
                plans[static_cast<std::size_t>(op.arrayId)];
            const bool isStore = op.kind == DddgOp::storeKind;
            info.cls = isStore ? plan.store : plan.load;
            if (!plan.local)
                continue;
            info.isWrite = isStore;
            info.flatBank = plan.bankBase +
                            op.offset / plan.wordBytes % plan.partitions;
        }
        if (++lane == params.lanes) {
            lane = 0;
            ++wave;
        }
    }
}

void
Datapath::enqueueReady(NodeId n)
{
    const NodeInfo &info = nodes[n];
    if (info.wave == currentWave) {
        pushReady(n);
        scheduleTick();
    } else {
        GENIE_ASSERT(info.wave > currentWave,
                     "ready node in a finished wave");
        earlyReady[info.wave].push_back(n);
    }
}

void
Datapath::pushReady(NodeId n)
{
    LaneState &lane = lanes[nodes[n].lane];
    std::size_t pos = lane.ready.size() - lane.head;
    if (pos < issueScanWindow) {
        lane.stuck = false;
        lane.index[indexOf(nodes[n].cls)] |= std::uint64_t{1} << pos;
    }
    lane.ready.push_back(n);
}

void
Datapath::scheduleTick()
{
    if (!active || tickScheduled)
        return;
    tickScheduled = true;
    Tick at = clockEdge(0);
    if (lastTickAt != maxTick && at <= lastTickAt)
        at = lastTickAt + clockPeriod();
    // Raw dispatch (Genie-Turbo): the two hottest event kinds in the
    // tree — accel.tick and accel.nodeComplete — skip std::function
    // entirely.
    eventq.scheduleFlowRaw(at, [](void *c, std::uint64_t) {
        auto *self = static_cast<Datapath *>(c);
        self->tickScheduled = false;
        self->tick();
    }, this, 0, "accel.tick");
}

void
Datapath::resetCycleCounters()
{
    Cycles now = curCycle();
    if (now != cycleStamp) {
        cycleStamp = now;
        refillBudgets(now);
    }
}

void
Datapath::refillBudgets(Cycles now)
{
    constexpr auto div = static_cast<std::size_t>(IssueClass::FpDiv);
    for (LaneState &lane : lanes) {
        lane.left = fullBudget;
        lane.left[div] = lane.divBusyUntil > now ? 0 : 1;
    }
    std::fill(bankSpent.begin(), bankSpent.end(), 0);
    cachePortsSpent = 0;
}

void
Datapath::tick()
{
    if (!active)
        return;
    lastTickAt = eventq.curTick();
    resetCycleCounters();
    issueTick = clockEdge(0);
    openBatches.clear();

    bool anyReadyLeft = false;
    for (unsigned l = 0; l < params.lanes; ++l) {
        LaneState &lane = lanes[l];
        if (lane.blocked()) {
            if (lane.hasReady())
                ++statMemStallCycles;
            continue;
        }
        scanLane(lane, l);
        if (lane.hasReady() && !lane.blocked())
            anyReadyLeft = true;
    }

    // Structural hazards resolve by aging one cycle; memory blocks
    // resolve via callbacks which re-schedule the tick. scheduleTick
    // respects the one-tick-per-cycle guard even if a synchronous
    // callback already scheduled the next edge during the issue loop.
    if (anyReadyLeft)
        scheduleTick();
}

inline std::pair<int, std::size_t>
Datapath::readyBitOf(NodeId n) const
{
    const DddgOp &op = dddg.ops()[n];
    return {plans[static_cast<std::size_t>(op.arrayId)].feArray,
            feBits->chunkOf(op.offset)};
}

// Inline: this runs once per visited window entry.
inline Datapath::IssueResult
Datapath::tryIssue(NodeId n, std::uint64_t bit, LaneState &lane,
                   unsigned l)
{
    NodeInfo &info = nodes[n];
    // DMA-triggered compute: a load must find its line's ready bit
    // set before anything else, or the lane stalls until the DMA
    // engine fills it (Section IV-B2: the control logic stalls the
    // whole lane). Bits only fill, so a load that finds its bit full
    // is a plain scratchpad access from then on.
    if (info.cls == IssueClass::ReadyBitLoad) {
        const auto [feArray, chunk] = readyBitOf(n);
        if (!feBits->isFullChunk(feArray, chunk))
            return stallOnReadyBit(feArray, chunk, l);
        info.cls = IssueClass::SpadAccess;
        lane.index[readyBitIndex] &= ~bit;
        lane.index[memSlot] |= bit;
        if (lane.left[memSlot] == 0)
            return IssueResult::Skip;
    }

    // Spent banks and ports turn an attempt away for one byte load
    // each; only an attempt that may succeed leaves here.
    switch (info.cls) {
      case IssueClass::SpadAccess:
        if (bankSpent[info.flatBank]) {
            ++pendingConflicts;
            return IssueResult::Spent;
        }
        return tryIssueSpadAccess(n, l, info);
      case IssueClass::CacheAccess:
        if (cachePortsSpent)
            return IssueResult::Spent;
        return tryIssueCacheAccess(n, l);
      default:
        issueOp(n, lane, l, info);
        return IssueResult::Issued;
    }
}

// Inline: this runs once per scan that issued.
inline void
Datapath::compactIndex(LaneState &lane, std::uint64_t issued)
{
    std::vector<NodeId> &q = lane.ready;
    const std::size_t first = lane.head;
    if ((issued & (issued + 1)) == 0) {
        // The oldest entries issued: drop them from the front. Two
        // shifts keep a whole-window issue (gone == 64) defined.
        const auto gone = static_cast<unsigned>(std::countr_one(issued));
        lane.head += gone;
        for (std::uint64_t &m : lane.index)
            m = m >> (gone - 1) >> 1;
    } else {
        // Slide the kept entries below the last issued one up against
        // it, so the issued ones fall into the consumed prefix, and
        // remove the issued positions from every mask, highest first
        // so the lower ones stay put.
        const auto top =
            static_cast<std::size_t>(64 - std::countl_zero(issued));
        std::size_t dst = first + top;
        for (std::size_t k = top; k-- > 0;) {
            // An issued entry's copy is overwritten by the next kept
            // one; dst never drops below the entry being read.
            q[dst - 1] = q[first + k];
            dst -= ~issued >> k & 1;
        }
        lane.head = dst;
        for (std::uint64_t &m : lane.index) {
            // Kernels use few classes, so most masks are empty.
            if (m == 0)
                continue;
            for (std::uint64_t gone = issued; gone != 0;) {
                const int k = 63 - std::countl_zero(gone);
                gone ^= std::uint64_t{1} << k;
                const std::uint64_t low = (std::uint64_t{1} << k) - 1;
                m = (m & low) | (m >> 1 & ~low);
            }
        }
    }

    // Entries past the old window slide into the freed positions.
    if (q.size() - first <= issueScanWindow)
        return;
    const std::size_t end =
        std::min<std::size_t>(q.size() - lane.head, issueScanWindow);
    for (std::size_t k = issueScanWindow - (lane.head - first); k < end;
         ++k) {
        lane.index[indexOf(nodes[q[lane.head + k]].cls)] |=
            std::uint64_t{1} << k;
    }
}

void
Datapath::scanLane(LaneState &lane, unsigned l)
{
    // Dataflow issue with a bounded scheduling window: hazarded ops
    // are skipped so younger independent ops may still go. The window
    // is the first issueScanWindow entries. A scan visits, in FIFO
    // order, only the entries whose budget slot is not yet spent and
    // the ready-bit loads; an entry on a spent slot would be turned
    // away with no side effect (DESIGN.md §4.2). Issued entries leave
    // the list and the rest keep their order.
    //
    // A lane whose last scan met only spent banks and ports skips the
    // scan while they are spent again: it would count the same
    // conflicts and change nothing else.
    if (!lane.hasReady())
        return;
    if (lane.stuck && stillStuck(lane)) {
        pendingConflicts += lane.stuckConflicts;
        flushConflicts();
        return;
    }
    std::vector<NodeId> &q = lane.ready;
    const std::size_t first = lane.head;
    const std::size_t window =
        std::min<std::size_t>(q.size() - first, issueScanWindow);
    // Budgets are full at a lane's turn, except a busy divider's.
    constexpr auto div = static_cast<std::size_t>(IssueClass::FpDiv);
    std::uint64_t visit = ~std::uint64_t{0} >> (64 - window);
    if (lane.left[div] == 0)
        visit &= ~lane.index[div];
    std::uint64_t issued = 0;
    std::size_t spentEntries = 0;
    while (visit != 0) {
        const std::uint64_t bit = visit & (0 - visit);
        visit ^= bit;
        NodeId n = q[first + static_cast<std::size_t>(std::countr_zero(bit))];
        IssueResult res = tryIssue(n, bit, lane, l);
        if (res == IssueResult::Issued) {
            issued |= bit;
            std::size_t s = budgetSlot(nodes[n].cls);
            if (lane.left[s] == 0)
                visit &= ~lane.index[s];
            if (lane.blocked())
                break;
            continue;
        }
        if (res == IssueResult::StopLane)
            break; // lane-stalling condition
        spentEntries += res == IssueResult::Spent;
    }
    // With nothing issued, nothing flushed mid-scan either, so the
    // pending count is this scan's.
    lane.stuck = spentEntries == window;
    if (lane.stuck)
        recordStuck(lane, spentEntries, pendingConflicts);
    flushConflicts();
    if (issued != 0)
        compactIndex(lane, issued);

    // Reclaim the consumed prefix once it is at least half the
    // vector, so each entry is moved O(1) times amortized.
    if (lane.head == q.size()) {
        q.clear();
        lane.head = 0;
    } else if (lane.head >= issueScanWindow && 2 * lane.head >= q.size()) {
        q.erase(q.begin(), q.begin() + static_cast<std::ptrdiff_t>(lane.head));
        lane.head = 0;
    }
}

bool
Datapath::stillStuck(const LaneState &lane) const
{
    if (lane.stuckOnCachePorts && !cachePortsSpent)
        return false;
    for (std::size_t b = 0; b < lane.numStuckBanks; ++b) {
        if (!bankSpent[lane.stuckBanks[b]])
            return false;
    }
    return true;
}

void
Datapath::recordStuck(LaneState &lane, std::size_t examined,
                      std::uint64_t conflicts)
{
    // Each examined scratchpad entry met a spent bank, whose byte is
    // 1. Raising a byte to 2 as its bank is recorded keeps the list
    // distinct; the bytes drop back to 1 afterwards.
    std::size_t count = 0;
    lane.stuckOnCachePorts = false;
    for (std::size_t i = lane.head; i < lane.head + examined; ++i) {
        const NodeInfo &info = nodes[lane.ready[i]];
        if (info.cls == IssueClass::CacheAccess) {
            lane.stuckOnCachePorts = true;
        } else if (bankSpent[info.flatBank] == 1) {
            bankSpent[info.flatBank] = 2;
            lane.stuckBanks[count++] = info.flatBank;
        }
    }
    for (std::size_t k = 0; k < count; ++k)
        bankSpent[lane.stuckBanks[k]] = 1;
    lane.numStuckBanks = static_cast<std::uint8_t>(count);
    lane.stuckConflicts = static_cast<std::uint8_t>(conflicts);
}

void
Datapath::flushConflicts()
{
    if (pendingConflicts == 0)
        return;
    statBankConflicts += static_cast<double>(pendingConflicts);
    spad->recordConflicts(pendingConflicts);
    pendingConflicts = 0;
}

void
Datapath::issueOp(NodeId n, LaneState &lane, unsigned l,
                  const NodeInfo &info)
{
    --lane.left[budgetSlot(info.cls)];
    if (info.cls == IssueClass::PerfectMem) {
        beginExecution(l, "mem", 1);
        scheduleCompletion(1, n);
        return;
    }
    // The divider is unpipelined.
    if (info.cls == IssueClass::FpDiv)
        lane.divBusyUntil = cycleStamp + info.latency;
    ++fuOps[static_cast<std::size_t>(info.cls)];
    beginExecution(l, "compute", info.latency);
    scheduleCompletion(info.latency, n);
}

Datapath::IssueResult
Datapath::stallOnReadyBit(int feArray, std::size_t chunk, unsigned lane)
{
    ++statReadyBitStalls;
    lanes[lane].blockedOnReadyBit = true;
    feBits->waitChunk(feArray, chunk, [this, lane] {
        lanes[lane].blockedOnReadyBit = false;
        scheduleTick();
    });
    return IssueResult::StopLane;
}

void
Datapath::beginExecution(unsigned lane, const char *what, Cycles lat)
{
    // Conflicts counted earlier in this scan trace before the span.
    flushConflicts();
    ++inFlightOps;
    Tick end = issueTick + cyclesToTicks(lat);
    busy.add(issueTick, end);
    traceNodeSpan(lane, what, issueTick, end);
}

void
Datapath::scheduleCompletion(Cycles lat, NodeId n)
{
    std::uint32_t b = 0;
    auto open = std::find_if(openBatches.begin(), openBatches.end(),
                             [lat](const auto &o) { return o.first == lat; });
    if (open != openBatches.end()) {
        b = open->second;
    } else {
        if (freeBatches.empty()) {
            b = static_cast<std::uint32_t>(batches.size());
            batches.emplace_back();
        } else {
            b = freeBatches.back();
            freeBatches.pop_back();
        }
        openBatches.emplace_back(lat, b);
        // Results are available *at* the clock edge `lat` cycles
        // after issue: complete one tick before that edge so
        // dependents can issue on the edge itself (otherwise every
        // dependence level would silently cost an extra cycle).
        // Scheduling as the batch opens gives it its first node's
        // (when, seq) position.
        Tick when = issueTick + cyclesToTicks(lat);
        GENIE_ASSERT(when > 0, "completion before time begins");
        eventq.scheduleFlowRaw(when - 1, [](void *c, std::uint64_t batch) {
            static_cast<Datapath *>(c)->retireBatch(
                static_cast<std::uint32_t>(batch));
        }, this, b, "accel.nodeComplete");
    }
    batches[b].nodes.push_back(n);
    if (eventq.tracer() != nullptr)
        batches[b].origins.push_back(eventq.flowCursor());
}

void
Datapath::retireBatch(std::uint32_t b)
{
    // Completions only enqueue and schedule, so no batch opens while
    // this one retires and the reference stays valid.
    CompletionBatch &batch = batches[b];
    for (std::size_t i = 0; i < batch.nodes.size(); ++i) {
        // Each node continues the causal flow its own issue span
        // started, as if it had its own event.
        if (!batch.origins.empty())
            eventq.resumeFlow(batch.origins[i]);
        onNodeComplete(batch.nodes[i]);
    }
    batch.nodes.clear();
    batch.origins.clear();
    freeBatches.push_back(b);
}

Datapath::IssueResult
Datapath::tryIssueSpadAccess(NodeId n, unsigned lane, const NodeInfo &info)
{
    const Bank &bank = banks[info.flatBank];
    Scratchpad::Access access =
        spad->tryAccessBank(bank.array, bank.partition, info.isWrite);
    bankSpent[info.flatBank] = access != Scratchpad::Access::Granted;
    if (access == Scratchpad::Access::Conflict) {
        ++pendingConflicts;
        return IssueResult::Spent;
    }
    --lanes[lane].left[memSlot];
    beginExecution(lane, "mem", 1);
    scheduleCompletion(1, n);
    return IssueResult::Issued;
}

Datapath::IssueResult
Datapath::tryIssueCacheAccess(NodeId n, unsigned lane)
{
    if (!cache->portAvailable()) {
        cachePortsSpent = 1;
        return IssueResult::Spent;
    }

    --lanes[lane].left[memSlot];
    beginExecution(lane, "mem", 1);

    // The lane blocks until the access is known to hit (decremented
    // synchronously below for TLB-hit + cache-hit) or until the miss
    // resolves (decremented in the cache callback).
    ++lanes[lane].pendingMem;

    const TraceOp &op = trace.ops[n];
    Addr vaddr = arrayVBase[static_cast<std::size_t>(op.arrayId)] +
                 op.offset;
    if (std::optional<Addr> paddr =
            tlb->translate(vaddr, [this, n, lane](Addr pa) {
                sendCacheAccess(n, lane, pa);
            }))
        sendCacheAccess(n, lane, *paddr);
    return IssueResult::Issued;
}

void
Datapath::sendCacheAccess(NodeId n, unsigned lane, Addr paddr)
{
    const TraceOp &op = trace.ops[n];
    auto outcome = cache->access(paddr, op.size,
                                 op.op == Opcode::Store, n,
                                 /*streamId=*/op.arrayId);
    if (outcome.reject != Cache::Reject::None) {
        ++statCacheRejects;
        scheduleCycles(1, [this, n, lane, paddr] {
            sendCacheAccess(n, lane, paddr);
        }, "accel.cacheRetry");
        return;
    }
    if (outcome.hit) {
        // Hits are pipelined: the lane keeps issuing; the completion
        // callback will arrive after hitLatency.
        GENIE_ASSERT(lanes[lane].pendingMem > 0,
                     "hit with no pending access");
        --lanes[lane].pendingMem;
        scheduleTick();
    }
}

void
Datapath::onNodeComplete(NodeId n)
{
    GENIE_ASSERT(inFlightOps > 0, "completion with nothing in flight");
    --inFlightOps;
    ++completedNodes;
    ++statNodes;

    std::uint32_t w = nodes[n].wave;
    GENIE_ASSERT(waveRemaining[w] > 0, "wave count underflow");
    --waveRemaining[w];

    for (NodeId c : dddg.children(n)) {
        GENIE_ASSERT(pendingParents[c] > 0, "parent count underflow");
        if (--pendingParents[c] == 0)
            enqueueReady(c);
    }

    if (w == currentWave && waveRemaining[w] == 0)
        advanceWave();

    if (completedNodes == trace.ops.size())
        finishIfDrained();
}

void
Datapath::advanceWave()
{
    while (currentWave + 1 < numWaves &&
           waveRemaining[currentWave] == 0) {
        ++currentWave;
        for (NodeId n : earlyReady[currentWave])
            pushReady(n);
        earlyReady[currentWave].clear();
        if (waveRemaining[currentWave] != 0)
            break;
    }
    scheduleTick();
}

void
Datapath::finishIfDrained()
{
    // In cache mode, wait for outstanding writebacks to retire (the
    // mfence before signaling the CPU, Section III-E).
    if (cache && cache->hasOutstanding()) {
        if (!drainCheckScheduled) {
            drainCheckScheduled = true;
            scheduleCyclesRaw(1, [](void *c, std::uint64_t) {
                auto *self = static_cast<Datapath *>(c);
                self->drainCheckScheduled = false;
                self->finishIfDrained();
            }, this, 0, "accel.drainCheck");
        }
        return;
    }

    active = false;
    // The last completion fires one tick before its clock edge; the
    // accelerator is architecturally done *at* that edge.
    endCycle = ticksToCycles(eventq.curTick());
    statCycles = static_cast<double>(endCycle - startCycle);
    if (onDone) {
        DoneCallback done = std::move(onDone);
        onDone = nullptr;
        eventq.scheduleFlow(clockEdge(0), std::move(done),
                            "accel.done");
    }
}

} // namespace genie
