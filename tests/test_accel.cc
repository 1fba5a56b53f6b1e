/**
 * @file
 * Accelerator-model unit tests: the trace-builder DSL, DDDG
 * construction (register + memory dependences, critical path), and
 * the datapath scheduler (dataflow, lanes, waves, FU limits,
 * scratchpad conflicts, ready-bit stalls, per-lane miss stalls, the
 * scan window, the stuck-lane memo and completion batches).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "accel/datapath.hh"
#include "accel/dddg.hh"
#include "accel/trace.hh"
#include "sim/logging.hh"
#include "trace/tracer.hh"
#include "workloads/workload.hh"

namespace genie
{
namespace
{

constexpr Tick accelPeriod = 10000; // 100 MHz

TEST(TraceBuilder, EmitsOpsInProgramOrder)
{
    TraceBuilder tb;
    int a = tb.addArray("a", 64, 4, true, false);
    tb.beginIteration();
    NodeId l = tb.load(a, 0, 4);
    NodeId c = tb.op(Opcode::IntAdd, {l});
    EXPECT_EQ(l, 0u);
    EXPECT_EQ(c, 1u);
    Trace t = tb.take();
    EXPECT_EQ(t.ops.size(), 2u);
    EXPECT_EQ(t.ops[1].deps.size(), 1u);
}

TEST(TraceBuilder, RejectsOutOfBoundsAccess)
{
    TraceBuilder tb;
    int a = tb.addArray("a", 64, 4, true, false);
    tb.beginIteration();
    EXPECT_DEATH(tb.load(a, 64, 4), "out of bounds");
}

TEST(TraceBuilder, RejectsZeroSizedArray)
{
    TraceBuilder tb;
    EXPECT_THROW(tb.addArray("z", 0, 4, true, false), FatalError);
}

TEST(TraceBuilder, ReduceBuildsBalancedTree)
{
    TraceBuilder tb;
    tb.addArray("a", 64, 4, true, false);
    tb.beginIteration();
    std::vector<NodeId> leaves;
    for (int i = 0; i < 8; ++i)
        leaves.push_back(tb.op(Opcode::Mov, {}));
    tb.reduce(Opcode::FpAdd, leaves);
    Trace t = tb.take();
    // 8 leaves + 7 internal adds.
    EXPECT_EQ(t.ops.size(), 15u);
    Dddg g(t);
    // Balanced tree depth: 3 adds above any leaf.
    EXPECT_EQ(g.criticalPathCycles(t),
              latencyOf(Opcode::Mov) + 3 * latencyOf(Opcode::FpAdd));
}

TEST(TraceBuilder, InputOutputAccounting)
{
    TraceBuilder tb;
    tb.addArray("in", 128, 4, true, false);
    tb.addArray("out", 64, 4, false, true);
    tb.addArray("both", 32, 4, true, true);
    tb.addArray("priv", 256, 4, false, false, true);
    Trace t = tb.peek();
    EXPECT_EQ(t.totalInputBytes(), 160u);
    EXPECT_EQ(t.totalOutputBytes(), 96u);
    EXPECT_EQ(t.totalArrayBytes(), 480u);
}

TEST(Dddg, InfersStoreToLoadDependence)
{
    TraceBuilder tb;
    int a = tb.addArray("a", 64, 4, true, false);
    tb.beginIteration();
    NodeId v = tb.op(Opcode::IntAdd, {});
    NodeId s = tb.store(a, 16, 4, {v});
    NodeId l = tb.load(a, 16, 4);
    Trace t = tb.take();
    Dddg g(t);
    EXPECT_GE(g.numMemoryEdges(), 1u);
    bool found = false;
    for (NodeId c : g.children(s))
        found = found || c == l;
    EXPECT_TRUE(found);
}

TEST(Dddg, NoFalseDependenceBetweenDifferentAddresses)
{
    TraceBuilder tb;
    int a = tb.addArray("a", 64, 4, true, false);
    tb.beginIteration();
    NodeId v = tb.op(Opcode::IntAdd, {});
    NodeId s = tb.store(a, 0, 4, {v});
    tb.load(a, 32, 4);
    Trace t = tb.take();
    Dddg g(t);
    EXPECT_TRUE(g.children(s).empty());
}

TEST(Dddg, DuplicateDepsCountOnce)
{
    TraceBuilder tb;
    tb.addArray("a", 64, 4, true, false);
    tb.beginIteration();
    NodeId x = tb.op(Opcode::Mov, {});
    NodeId sq = tb.op(Opcode::FpMul, {x, x}); // x*x
    Trace t = tb.take();
    Dddg g(t);
    EXPECT_EQ(g.parentCounts()[sq], 1u);
    EXPECT_EQ(g.children(x).size(), 1u);
}

TEST(Dddg, LastWriterWins)
{
    TraceBuilder tb;
    int a = tb.addArray("a", 64, 4, true, false);
    tb.beginIteration();
    NodeId s1 = tb.store(a, 0, 4, {});
    NodeId s2 = tb.store(a, 0, 4, {});
    NodeId l = tb.load(a, 0, 4);
    Trace t = tb.take();
    Dddg g(t);
    bool fromS1 = false, fromS2 = false;
    for (NodeId c : g.children(s1))
        fromS1 = fromS1 || c == l;
    for (NodeId c : g.children(s2))
        fromS2 = fromS2 || c == l;
    EXPECT_FALSE(fromS1);
    EXPECT_TRUE(fromS2);
}

/**
 * Naive per-node reference for the DDDG: each node's producer set
 * (register deps plus the last writer of every word a load reads),
 * and the memory-edge count with the builder's rule that a load adds
 * one edge each time the last writer changes across its words.
 */
struct ReferenceDddg
{
    std::vector<std::set<NodeId>> producers;
    std::size_t memEdges = 0;

    explicit ReferenceDddg(const Trace &t) : producers(t.ops.size())
    {
        std::map<std::pair<int, Addr>, NodeId> lastWriter;
        for (NodeId i = 0; i < t.ops.size(); ++i) {
            const TraceOp &op = t.ops[i];
            producers[i].insert(op.deps.begin(), op.deps.end());
            NodeId prev = invalidNode;
            for (Addr a = op.offset / 4 * 4; a < op.offset + op.size;
                 a += 4) {
                auto key = std::make_pair(int(op.arrayId), a);
                if (op.op == Opcode::Store) {
                    lastWriter[key] = i;
                } else if (op.op == Opcode::Load) {
                    auto it = lastWriter.find(key);
                    if (it != lastWriter.end() && it->second != prev) {
                        producers[i].insert(it->second);
                        ++memEdges;
                        prev = it->second;
                    }
                }
            }
        }
    }
};

class DddgCsrTest : public ::testing::TestWithParam<std::string>
{};

TEST_P(DddgCsrTest, MatchesNaiveReference)
{
    Trace t = makeWorkload(GetParam())->build().trace;
    Dddg g(t);
    ReferenceDddg ref(t);

    std::vector<std::vector<NodeId>> refChildren(t.ops.size());
    std::size_t refEdges = 0;
    for (NodeId i = 0; i < t.ops.size(); ++i) {
        for (NodeId p : ref.producers[i])
            refChildren[p].push_back(i);
        refEdges += ref.producers[i].size();
    }

    std::size_t parentSum = 0;
    for (NodeId n = 0; n < g.numNodes(); ++n) {
        auto kids = g.children(n);
        ASSERT_TRUE(std::adjacent_find(kids.begin(), kids.end(),
                                       std::greater_equal<NodeId>()) ==
                    kids.end())
            << "children of " << n << " not sorted and unique";
        ASSERT_TRUE(std::equal(kids.begin(), kids.end(),
                               refChildren[n].begin(),
                               refChildren[n].end()))
            << "children of " << n;
        ASSERT_EQ(g.parentCounts()[n], ref.producers[n].size()) << "node " << n;
        parentSum += g.parentCounts()[n];
    }
    EXPECT_EQ(parentSum, g.numEdges());
    EXPECT_EQ(g.numEdges(), refEdges);
    EXPECT_EQ(g.numMemoryEdges(), ref.memEdges);
}

INSTANTIATE_TEST_SUITE_P(
    Figure8, DddgCsrTest, ::testing::ValuesIn(figure8Workloads()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string n = info.param;
        std::replace(n.begin(), n.end(), '-', '_');
        return n;
    });

TEST(Dddg, DuplicateProducerIsOneEdge)
{
    TraceBuilder tb;
    int a = tb.addArray("a", 64, 4, true, false);
    tb.beginIteration();
    NodeId x = tb.op(Opcode::Mov, {});
    NodeId sq = tb.op(Opcode::FpMul, {x, x}); // x*x
    NodeId s = tb.store(a, 0, 4, {sq});
    NodeId l = tb.load(a, 0, 4, {s}); // register and memory edge
    Trace t = tb.take();
    Dddg g(t);
    EXPECT_EQ(g.parentCounts()[sq], 1u);
    EXPECT_EQ(g.parentCounts()[l], 1u);
    EXPECT_EQ(g.numEdges(), 3u);
    EXPECT_EQ(g.numMemoryEdges(), 1u);
    ASSERT_EQ(g.children(x).size(), 1u);
    EXPECT_EQ(g.children(x)[0], sq);
    ASSERT_EQ(g.children(s).size(), 1u);
    EXPECT_EQ(g.children(s)[0], l);
}

TEST(Dddg, CriticalPathOfChain)
{
    TraceBuilder tb;
    tb.addArray("a", 64, 4, true, false);
    tb.beginIteration();
    NodeId n = tb.op(Opcode::FpMul, {});
    for (int i = 0; i < 9; ++i)
        n = tb.op(Opcode::FpMul, {n});
    Trace t = tb.take();
    Dddg g(t);
    EXPECT_EQ(g.criticalPathCycles(t), 10 * latencyOf(Opcode::FpMul));
}

// ---------------------------------------------------------------
// Datapath scheduling.
// ---------------------------------------------------------------

struct DatapathFixture
{
    explicit DatapathFixture(Trace t, Datapath::Params params = {})
        : trace(std::move(t)), dddg(trace),
          spad("spad", eq, ClockDomain(accelPeriod)),
          fe("fe", 64),
          dp("dp", eq, ClockDomain(accelPeriod), trace, dddg, params,
             Datapath::MemMode::ScratchpadDma)
    {
        std::vector<int> spadIds, feIds;
        for (const auto &a : trace.arrays) {
            Scratchpad::ArrayConfig sc;
            sc.name = a.name;
            sc.sizeBytes = a.sizeBytes;
            sc.wordBytes = a.wordBytes;
            sc.partitions = partitions;
            spadIds.push_back(spad.addArray(sc));
            int feId = fe.addArray(a.sizeBytes);
            feIds.push_back(trackReadyBits ? feId : -1);
            if (!trackReadyBits)
                fe.fill(feId, 0, a.sizeBytes);
        }
        dp.attachScratchpad(&spad, spadIds, &fe, feIds);
    }

    static unsigned partitions;
    static bool trackReadyBits;

    EventQueue eq;
    Trace trace;
    Dddg dddg;
    Scratchpad spad;
    FullEmptyBits fe;
    Datapath dp;

    Cycles
    runToCompletion()
    {
        bool done = false;
        dp.start([&] { done = true; });
        eq.run();
        EXPECT_TRUE(done);
        return dp.executedCycles();
    }
};

unsigned DatapathFixture::partitions = 16;
bool DatapathFixture::trackReadyBits = false;

Trace
parallelTrace(unsigned iterations, unsigned chainLen)
{
    TraceBuilder tb;
    int a = tb.addArray("a", 4096, 4, true, false);
    int b = tb.addArray("b", 4096, 4, false, true);
    for (unsigned i = 0; i < iterations; ++i) {
        tb.beginIteration();
        NodeId v = tb.load(a, (i * 4) % 4096, 4);
        for (unsigned c = 0; c < chainLen; ++c)
            v = tb.op(Opcode::IntAdd, {v});
        tb.store(b, (i * 4) % 4096, 4, {v});
    }
    return tb.take();
}

TEST(Datapath, ExecutesAllNodes)
{
    DatapathFixture::partitions = 16;
    DatapathFixture::trackReadyBits = false;
    DatapathFixture f(parallelTrace(8, 4));
    f.runToCompletion();
    EXPECT_DOUBLE_EQ(f.dp.stats().get("nodes"),
                     static_cast<double>(f.trace.ops.size()));
}

TEST(Datapath, MoreLanesFasterOnParallelWork)
{
    Datapath::Params p1;
    p1.lanes = 1;
    Datapath::Params p4;
    p4.lanes = 4;
    DatapathFixture f1(parallelTrace(64, 8), p1);
    DatapathFixture f4(parallelTrace(64, 8), p4);
    Cycles c1 = f1.runToCompletion();
    Cycles c4 = f4.runToCompletion();
    EXPECT_LT(c4, c1);
    EXPECT_GT(static_cast<double>(c1) / static_cast<double>(c4), 2.0);
}

TEST(Datapath, SerialChainGainsNothingFromLanes)
{
    // One long dependence chain in a single iteration.
    TraceBuilder tb;
    tb.addArray("a", 64, 4, true, false);
    tb.beginIteration();
    NodeId v = tb.op(Opcode::IntAdd, {});
    for (int i = 0; i < 200; ++i)
        v = tb.op(Opcode::IntAdd, {v});
    Trace t = tb.take();

    Datapath::Params p1;
    p1.lanes = 1;
    Datapath::Params p16;
    p16.lanes = 16;
    DatapathFixture f1(t, p1);
    DatapathFixture f16(t, p16);
    EXPECT_EQ(f1.runToCompletion(), f16.runToCompletion());
}

TEST(Datapath, WaveBarrierOrdersIterationGroups)
{
    // With 2 lanes, iterations {0,1} must complete before {2,3}
    // start: total time is at least 2x the single-wave time.
    Datapath::Params p;
    p.lanes = 2;
    DatapathFixture f2(parallelTrace(2, 32), p);
    DatapathFixture f4(parallelTrace(4, 32), p);
    Cycles one = f2.runToCompletion();
    Cycles two = f4.runToCompletion();
    EXPECT_GE(two, 2 * one - 2);
}

TEST(Datapath, FuIssueLimitsThrottle)
{
    // 32 independent FP multiplies in one iteration; 1 lane with one
    // FP multiplier issues one per cycle.
    TraceBuilder tb;
    tb.addArray("a", 64, 4, true, false);
    tb.beginIteration();
    for (int i = 0; i < 32; ++i)
        tb.op(Opcode::FpMul, {});
    Trace t = tb.take();
    Datapath::Params p;
    p.lanes = 1;
    DatapathFixture f(t, p);
    Cycles c = f.runToCompletion();
    EXPECT_GE(c, 32u); // one issue per cycle + pipeline drain
}

TEST(Datapath, DividerIsUnpipelined)
{
    TraceBuilder tb;
    tb.addArray("a", 64, 4, true, false);
    tb.beginIteration();
    for (int i = 0; i < 4; ++i)
        tb.op(Opcode::FpDiv, {});
    Trace t = tb.take();
    Datapath::Params p;
    p.lanes = 1;
    DatapathFixture f(t, p);
    Cycles c = f.runToCompletion();
    EXPECT_GE(c, 4 * latencyOf(Opcode::FpDiv));
}

TEST(Datapath, BankConflictsSlowScratchpadAccess)
{
    DatapathFixture::partitions = 1;
    DatapathFixture fNarrow(parallelTrace(64, 1),
                            [] {
                                Datapath::Params p;
                                p.lanes = 8;
                                return p;
                            }());
    Cycles narrow = fNarrow.runToCompletion();
    double conflicts = fNarrow.dp.stats().get("bankConflicts");

    DatapathFixture::partitions = 16;
    DatapathFixture fWide(parallelTrace(64, 1),
                          [] {
                              Datapath::Params p;
                              p.lanes = 8;
                              return p;
                          }());
    Cycles wide = fWide.runToCompletion();

    EXPECT_GT(conflicts, 0.0);
    EXPECT_LE(wide, narrow);
}

TEST(Datapath, ReadyBitStallUntilFill)
{
    DatapathFixture::partitions = 16;
    DatapathFixture::trackReadyBits = true;
    DatapathFixture f(parallelTrace(4, 2));
    DatapathFixture::trackReadyBits = false;

    bool done = false;
    f.dp.start([&] { done = true; });
    f.eq.run();
    EXPECT_FALSE(done) << "loads must stall on empty ready bits";
    EXPECT_GT(f.dp.stats().get("readyBitStalls"), 0.0);

    // Fill the input array: execution resumes and completes.
    f.fe.fill(0, 0, 4096);
    f.eq.run();
    EXPECT_TRUE(done);
}

TEST(Datapath, PerfectMemoryIgnoresBanks)
{
    DatapathFixture::partitions = 1;
    Datapath::Params p;
    p.lanes = 8;
    p.perfectMemory = true;
    DatapathFixture f(parallelTrace(64, 1), p);
    f.runToCompletion();
    EXPECT_DOUBLE_EQ(f.dp.stats().get("bankConflicts"), 0.0);
    DatapathFixture::partitions = 16;
}

TEST(Datapath, ComputeBusyIntervalsCoverExecution)
{
    DatapathFixture f(parallelTrace(16, 4));
    Cycles cycles = f.runToCompletion();
    const IntervalSet &busy = f.dp.computeBusy();
    EXPECT_FALSE(busy.empty());
    EXPECT_LE(busy.measure(), (cycles + 1) * accelPeriod);
    EXPECT_GT(busy.measure(), 0u);
}

TEST(Datapath, FuOpCountsMatchTrace)
{
    TraceBuilder tb;
    tb.addArray("a", 64, 4, true, false);
    tb.beginIteration();
    tb.op(Opcode::FpMul, {});
    tb.op(Opcode::FpMul, {});
    tb.op(Opcode::IntAdd, {});
    Trace t = tb.take();
    DatapathFixture f(t);
    f.runToCompletion();
    const auto &ops = f.dp.fuOpCounts();
    EXPECT_EQ(ops[static_cast<std::size_t>(FuKind::FpMul)], 2u);
    EXPECT_EQ(ops[static_cast<std::size_t>(FuKind::IntAlu)], 1u);
}

std::vector<NodeId>
readyOf(const Datapath &dp, unsigned lane)
{
    auto r = dp.readyNodes(lane);
    return {r.begin(), r.end()};
}

TEST(DatapathWindow, NodePastTheWindowDoesNotIssue)
{
    // Lane 0 takes the single bank port with one load; lane 1 then
    // holds 64 conflicting loads ahead of a free IntAdd at position
    // 65, which the 64-entry window never reaches that cycle.
    TraceBuilder tb;
    int a = tb.addArray("a", 4096, 4, true, false);
    tb.beginIteration();
    tb.load(a, 0, 4);
    tb.beginIteration();
    std::vector<NodeId> lane1;
    for (unsigned k = 0; k < 64; ++k)
        lane1.push_back(tb.load(a, 4 * k, 4));
    lane1.push_back(tb.op(Opcode::IntAdd, {}));

    DatapathFixture::partitions = 1;
    Datapath::Params p;
    p.lanes = 2;
    DatapathFixture f(tb.take(), p);
    DatapathFixture::partitions = 16;

    f.dp.start([] {});
    ASSERT_TRUE(f.eq.step()); // the first tick
    EXPECT_TRUE(readyOf(f.dp, 0).empty());
    EXPECT_EQ(readyOf(f.dp, 1), lane1);
    EXPECT_DOUBLE_EQ(f.dp.stats().get("bankConflicts"), 64.0);
    f.eq.run();
    EXPECT_FALSE(f.dp.running());
}

TEST(DatapathWindow, EmptyReadyBitStopsLaneInFifoOrder)
{
    TraceBuilder tb;
    int a = tb.addArray("a", 4096, 4, true, false);
    tb.beginIteration();
    tb.op(Opcode::IntAdd, {});
    NodeId ld = tb.load(a, 0, 4);
    NodeId b = tb.op(Opcode::IntAdd, {});
    NodeId c = tb.op(Opcode::Mov, {});

    DatapathFixture::trackReadyBits = true;
    DatapathFixture f(tb.take());
    DatapathFixture::trackReadyBits = false;

    bool done = false;
    f.dp.start([&] { done = true; });
    ASSERT_TRUE(f.eq.step()); // the first tick
    EXPECT_EQ(readyOf(f.dp, 0), (std::vector<NodeId>{ld, b, c}));
    EXPECT_DOUBLE_EQ(f.dp.stats().get("readyBitStalls"), 1.0);

    f.eq.run(); // the lane stays stalled
    EXPECT_FALSE(done);
    EXPECT_EQ(readyOf(f.dp, 0), (std::vector<NodeId>{ld, b, c}));

    f.fe.fill(0, 0, 4096);
    f.eq.run();
    EXPECT_TRUE(done);
    EXPECT_DOUBLE_EQ(f.dp.stats().get("nodes"), 4.0);
}

TEST(DatapathWindow, ReadyListStaysFifoAcrossReclamation)
{
    // Independent ops, four FpMuls (one issues per cycle) to every
    // IntAdd (two per cycle): the IntAdds overtake inside the window,
    // so the list compacts every cycle and reclaims its prefix
    // repeatedly over thousands of issues. A plain vector model of the
    // window semantics must match it cycle by cycle.
    constexpr unsigned numOps = 3000;
    TraceBuilder tb;
    tb.addArray("a", 64, 4, true, false);
    tb.beginIteration();
    std::vector<NodeId> model;
    for (unsigned i = 0; i < numOps; ++i)
        model.push_back(
            tb.op(i % 5 == 4 ? Opcode::IntAdd : Opcode::FpMul, {}));
    Trace t = tb.take();
    std::vector<Opcode> opOf;
    for (const TraceOp &op : t.ops)
        opOf.push_back(op.op);

    Datapath::Params p;
    p.lanes = 1;
    DatapathFixture f(std::move(t), p);
    f.dp.start([] {});
    unsigned cycles = 0;
    while (!model.empty()) {
        unsigned alu = p.intAluPerLane, mul = p.fpMulPerLane;
        std::vector<NodeId> kept;
        std::size_t window = std::min<std::size_t>(model.size(), 64);
        for (std::size_t i = 0; i < window; ++i) {
            unsigned &left = opOf[model[i]] == Opcode::IntAdd ? alu : mul;
            if (left > 0)
                --left;
            else
                kept.push_back(model[i]);
        }
        kept.insert(kept.end(), model.begin() + window, model.end());
        model = std::move(kept);

        f.eq.run(Tick(cycles) * accelPeriod);
        ASSERT_EQ(readyOf(f.dp, 0), model) << "cycle " << cycles;
        ++cycles;
    }
    EXPECT_GE(cycles, numOps * 4 / 5);
    f.eq.run();
    EXPECT_DOUBLE_EQ(f.dp.stats().get("nodes"), double(numOps));
}

/**
 * Lane 0 (iteration 0) holds 20 independent loads of array `a`, so it
 * takes that array's single bank port first on every cycle through
 * 19. Lane 1 (iteration 1) issues a 12-cycle FpDiv on cycle 0 and
 * holds @p stuckLoads loads of `a` besides: from cycle 1 on, every
 * entry it examines meets the spent bank, so the stuck-lane memo
 * covers it. Array `b` has a bank of its own. @return the FpDiv, for
 * a late node of lane 1 to depend on.
 */
NodeId
stuckLaneTrace(TraceBuilder &tb, unsigned stuckLoads)
{
    int a = tb.addArray("a", 4096, 4, true, false);
    tb.addArray("b", 4096, 4, true, false);
    tb.beginIteration();
    for (unsigned k = 0; k < 20; ++k)
        tb.load(a, 4 * k, 4);
    tb.beginIteration();
    NodeId div = tb.op(Opcode::FpDiv, {});
    for (unsigned k = 0; k < stuckLoads; ++k)
        tb.load(a, 4 * k, 4);
    return div;
}

Datapath::Params
twoLanes()
{
    Datapath::Params p;
    p.lanes = 2;
    return p;
}

TEST(DatapathWindow, PushIntoAStuckLaneIssuesOnceItsBankIsFree)
{
    TraceBuilder tb;
    NodeId div = stuckLaneTrace(tb, 10);
    NodeId late = tb.load(1, 0, 4, {div});
    DatapathFixture::partitions = 1;
    DatapathFixture f(tb.take(), twoLanes());
    DatapathFixture::partitions = 16;
    f.dp.start([] {});

    // The divide retires just before edge 12 and pushes `late` into
    // the stuck lane's window; bank b is free, so it goes on edge 12.
    f.eq.run(12 * accelPeriod - 1);
    ASSERT_EQ(readyOf(f.dp, 1).size(), 11u);
    EXPECT_EQ(readyOf(f.dp, 1).back(), late);
    f.eq.run(12 * accelPeriod);
    auto r = readyOf(f.dp, 1);
    EXPECT_EQ(r.size(), 10u);
    EXPECT_EQ(std::count(r.begin(), r.end(), late), 0);

    // Lane 0 meets 19+18+...+0 conflicts, lane 1 ten a cycle through
    // cycle 19, then 9+8+...+0 as it drains one load a cycle.
    f.eq.run();
    EXPECT_DOUBLE_EQ(f.dp.stats().get("bankConflicts"), 190.0 + 200 + 45);
    EXPECT_EQ(f.dp.executedCycles(), 30u);
}

TEST(DatapathWindow, PushPastAStuckWindowWaitsForTheWindow)
{
    TraceBuilder tb;
    NodeId div = stuckLaneTrace(tb, 64);
    NodeId late = tb.op(Opcode::IntAdd, {div});
    DatapathFixture::partitions = 1;
    DatapathFixture f(tb.take(), twoLanes());
    DatapathFixture::partitions = 16;
    f.dp.start([] {});

    // `late` lands at position 65, so the lane stays stuck and the
    // window reaches it only once lane 1's first load issues (20).
    f.eq.run(20 * accelPeriod);
    ASSERT_EQ(readyOf(f.dp, 1).size(), 64u);
    EXPECT_EQ(readyOf(f.dp, 1).back(), late);
    f.eq.run(21 * accelPeriod);
    auto r = readyOf(f.dp, 1);
    EXPECT_EQ(std::count(r.begin(), r.end(), late), 0);

    // Lane 0: 19+...+0. Lane 1: 63 beside the divide on cycle 0, 64 a
    // cycle on 1-19, then 63+62+...+0 as it drains.
    f.eq.run();
    EXPECT_DOUBLE_EQ(f.dp.stats().get("bankConflicts"),
                     190.0 + 63 + 64 * 19 + 2016);
    EXPECT_EQ(f.dp.executedCycles(), 84u);
}

TEST(DatapathWindow, WaveAdvanceAfterAStuckLaneIssuesAtOnce)
{
    // Wave 0 is the stuck-lane pair (lane 1 holds five loads and
    // drains them on cycles 20-24); wave 1 is one free IntAdd per
    // lane, ready early and pushed when wave 0's last load retires.
    TraceBuilder tb;
    stuckLaneTrace(tb, 5);
    tb.beginIteration();
    NodeId add0 = tb.op(Opcode::IntAdd, {});
    tb.beginIteration();
    NodeId add1 = tb.op(Opcode::IntAdd, {});
    DatapathFixture::partitions = 1;
    DatapathFixture f(tb.take(), twoLanes());
    DatapathFixture::partitions = 16;
    f.dp.start([] {});

    f.eq.run(25 * accelPeriod - 1);
    EXPECT_EQ(readyOf(f.dp, 0), std::vector<NodeId>{add0});
    EXPECT_EQ(readyOf(f.dp, 1), std::vector<NodeId>{add1});
    f.eq.run(25 * accelPeriod);
    EXPECT_TRUE(readyOf(f.dp, 0).empty());
    EXPECT_TRUE(readyOf(f.dp, 1).empty());
    f.eq.run();
    EXPECT_EQ(f.dp.executedCycles(), 26u);
    EXPECT_DOUBLE_EQ(f.dp.stats().get("bankConflicts"),
                     190.0 + 5 * 20 + 10);
}

TEST(DatapathWindow, TracedConflictInstantsMatchTheStat)
{
    // The stuck lane's memo adds its conflicts in bulk; each one must
    // still leave its own `conflict` instant.
    TraceBuilder tb;
    NodeId div = stuckLaneTrace(tb, 64);
    tb.op(Opcode::IntAdd, {div});
    DatapathFixture::partitions = 1;
    DatapathFixture f(tb.take(), twoLanes());
    DatapathFixture::partitions = 16;
    Tracer tracer(f.eq, traceCategoryBit(TraceCategory::Spad));
    f.eq.setTracer(&tracer);
    f.runToCompletion();
    f.eq.setTracer(nullptr);
    EXPECT_DOUBLE_EQ(f.spad.conflicts(), 190.0 + 63 + 64 * 19 + 2016);
    EXPECT_EQ(static_cast<double>(
                  tracer.instantCount(TraceCategory::Spad, "conflict")),
              f.spad.conflicts());
    EXPECT_EQ(tracer.numEvents(),
              tracer.instantCount(TraceCategory::Spad, "conflict"));
}

TEST(DatapathWindow, IssueFromTheLastSlotAdmitsTheNextEntry)
{
    // Lane 0 takes the single bank port on cycles 0 and 1. Lane 1
    // holds 63 conflicting loads, then an IntAdd at window position
    // 63 and another just past the window. The first issues on
    // cycle 0; the second slides into position 63 and issues on
    // cycle 1.
    TraceBuilder tb;
    int a = tb.addArray("a", 4096, 4, true, false);
    tb.beginIteration();
    tb.load(a, 0, 4);
    tb.load(a, 4, 4);
    tb.beginIteration();
    std::vector<NodeId> loads;
    for (unsigned k = 0; k < 63; ++k)
        loads.push_back(tb.load(a, 4 * k, 4));
    tb.op(Opcode::IntAdd, {});
    NodeId outside = tb.op(Opcode::IntAdd, {});

    DatapathFixture::partitions = 1;
    DatapathFixture f(tb.take(), twoLanes());
    DatapathFixture::partitions = 16;
    f.dp.start([] {});

    ASSERT_TRUE(f.eq.step()); // the cycle-0 tick
    std::vector<NodeId> want = loads;
    want.push_back(outside);
    EXPECT_EQ(readyOf(f.dp, 1), want);
    EXPECT_DOUBLE_EQ(f.dp.stats().get("bankConflicts"), 1.0 + 63);

    f.eq.run(accelPeriod); // through the cycle-1 tick
    EXPECT_EQ(readyOf(f.dp, 1), loads);
    EXPECT_DOUBLE_EQ(f.dp.stats().get("bankConflicts"), 64.0 + 63);
    f.eq.run();
    EXPECT_FALSE(f.dp.running());
}

TEST(DatapathWindow, ScatteredIssuesKeepTheReadyListInFifoOrder)
{
    // Mostly FpDivs, which the unpipelined divider admits one per 12
    // cycles, with IntMuls, FpAdds and FpMuls scattered among them:
    // each cycle issues a few entries from scattered positions. A
    // plain vector model of the window must match it cycle by cycle.
    constexpr unsigned numOps = 150;
    TraceBuilder tb;
    tb.addArray("a", 64, 4, true, false);
    tb.beginIteration();
    std::vector<NodeId> model;
    for (unsigned k = 0; k < numOps; ++k) {
        Opcode op = k % 7 == 3    ? Opcode::IntMul
                    : k % 11 == 5 ? Opcode::FpAdd
                    : k % 13 == 8 ? Opcode::FpMul
                                  : Opcode::FpDiv;
        model.push_back(tb.op(op, {}));
    }
    Trace t = tb.take();
    std::vector<FuKind> kindOf;
    for (const TraceOp &op : t.ops)
        kindOf.push_back(fuKindOf(op.op));

    Datapath::Params p;
    p.lanes = 1;
    DatapathFixture f(std::move(t), p);
    f.dp.start([] {});
    Cycles divBusyUntil = 0;
    unsigned scattered = 0;
    for (Cycles cycle = 0; !model.empty(); ++cycle) {
        std::array<unsigned, 6> left = {
            p.intAluPerLane, p.intMulPerLane, p.fpAddPerLane,
            p.fpMulPerLane,  divBusyUntil > cycle ? 0u : 1u,
            p.otherPerLane};
        std::vector<NodeId> kept;
        std::vector<std::size_t> issuedAt;
        std::size_t window = std::min<std::size_t>(model.size(), 64);
        for (std::size_t i = 0; i < window; ++i) {
            FuKind k = kindOf[model[i]];
            unsigned &slot = left[static_cast<std::size_t>(k)];
            if (slot == 0) {
                kept.push_back(model[i]);
                continue;
            }
            --slot;
            issuedAt.push_back(i);
            if (k == FuKind::FpDiv)
                divBusyUntil = cycle + latencyOf(Opcode::FpDiv);
        }
        kept.insert(kept.end(), model.begin() + window, model.end());
        model = std::move(kept);
        scattered += issuedAt.size() >= 3 && issuedAt[0] > 0 &&
                     issuedAt[1] > issuedAt[0] + 1 &&
                     issuedAt[2] > issuedAt[1] + 1;

        f.eq.run(Tick(cycle) * accelPeriod);
        ASSERT_EQ(readyOf(f.dp, 0), model) << "cycle " << cycle;
    }
    EXPECT_GT(scattered, 0u) << "no cycle issued from three scattered "
                                "positions";
    f.eq.run();
    EXPECT_DOUBLE_EQ(f.dp.stats().get("nodes"), double(numOps));
}

TEST(DatapathWindow, FullReadyBitLoadOnASpentMemoryBudgetWaitsACycle)
{
    // Three ready-bit loads to distinct banks, their line already
    // filled. Two take the lane's memory budget; the third finds its
    // bit full but no budget, so it stays without stalling the lane.
    TraceBuilder tb;
    int a = tb.addArray("a", 4096, 4, true, false);
    tb.beginIteration();
    tb.load(a, 0, 4);
    tb.load(a, 4, 4);
    NodeId third = tb.load(a, 8, 4);
    tb.op(Opcode::IntAdd, {});

    DatapathFixture::trackReadyBits = true;
    DatapathFixture f(tb.take());
    DatapathFixture::trackReadyBits = false;
    f.fe.fill(0, 0, 4096);

    f.dp.start([] {});
    ASSERT_TRUE(f.eq.step()); // the cycle-0 tick
    EXPECT_EQ(readyOf(f.dp, 0), std::vector<NodeId>{third})
        << "the IntAdd behind the skipped load still issues";
    EXPECT_DOUBLE_EQ(f.dp.stats().get("readyBitStalls"), 0.0);
    f.eq.run(accelPeriod);
    EXPECT_TRUE(readyOf(f.dp, 0).empty());
    f.eq.run();
    EXPECT_EQ(f.dp.executedCycles(), 2u);
    EXPECT_DOUBLE_EQ(f.dp.stats().get("readyBitStalls"), 0.0);
    EXPECT_DOUBLE_EQ(f.dp.stats().get("memStallCycles"), 0.0);
}

TEST(DatapathWindow, LongIntMulBacklogIssuesOnePerCycle)
{
    constexpr unsigned numOps = 100;
    TraceBuilder tb;
    tb.addArray("a", 64, 4, true, false);
    tb.beginIteration();
    for (unsigned k = 0; k < numOps; ++k)
        tb.op(Opcode::IntMul, {});
    Datapath::Params p;
    p.lanes = 1;
    DatapathFixture f(tb.take(), p);
    f.dp.start([] {});
    for (unsigned cycle = 0; cycle < numOps; ++cycle) {
        f.eq.run(Tick(cycle) * accelPeriod);
        ASSERT_EQ(readyOf(f.dp, 0).size(), numOps - 1 - cycle)
            << "cycle " << cycle;
    }
    f.eq.run();
    EXPECT_EQ(f.dp.executedCycles(),
              numOps - 1 + latencyOf(Opcode::IntMul));
    EXPECT_DOUBLE_EQ(f.dp.stats().get("bankConflicts"), 0.0);
    EXPECT_EQ(f.dp.fuOpCounts()[static_cast<std::size_t>(FuKind::IntMul)],
              numOps);
}

TEST(DatapathBatch, LatenciesMeetingOnOneEdgeRetireInIssueOrder)
{
    // n0 (FpAdd, 3 cycles) issues at cycle 0; n2 (IntMul, 2 cycles)
    // issues at cycle 1 after n1. Both complete on edge 3, n0 first,
    // so n0's consumer queues ahead of n2's despite its higher id.
    // n1 and m share cycle 0's one-cycle batch and retire in the
    // order they issued.
    TraceBuilder tb;
    tb.addArray("a", 64, 4, true, false);
    tb.beginIteration();
    NodeId n0 = tb.op(Opcode::FpAdd, {});
    NodeId n1 = tb.op(Opcode::IntAdd, {});
    NodeId m = tb.op(Opcode::Mov, {});
    NodeId n2 = tb.op(Opcode::IntMul, {n1});
    NodeId afterM = tb.op(Opcode::Mov, {m});
    NodeId after2 = tb.op(Opcode::IntAdd, {n2});
    NodeId after0 = tb.op(Opcode::IntAdd, {n0});
    Datapath::Params p;
    p.lanes = 1;
    DatapathFixture f(tb.take(), p);
    f.dp.start([] {});

    f.eq.run(accelPeriod - 1); // n1 then m, before the edge-1 tick
    EXPECT_EQ(readyOf(f.dp, 0), (std::vector<NodeId>{n2, afterM}));
    f.eq.run(3 * accelPeriod - 2);
    EXPECT_TRUE(readyOf(f.dp, 0).empty());
    f.eq.run(3 * accelPeriod - 1); // both completions, before the tick
    EXPECT_EQ(readyOf(f.dp, 0), (std::vector<NodeId>{after0, after2}));
    f.eq.run();
    EXPECT_EQ(f.dp.executedCycles(), 4u);
}

} // namespace
} // namespace genie
