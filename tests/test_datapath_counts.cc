/**
 * @file
 * Exact datapath counts over the issue loop's hard cases, pinned in
 * tests/golden/datapath_counts.txt.
 *
 * Every Figure-8 kernel runs in DMA mode at lanes {1,4,16} x
 * partitions {1,4} x triggered {0,1} (lanes > partitions is where
 * most window entries meet a spent bank) and in cache mode at lanes
 * {1,4,16} x cache_ports {1,2}. Each point records the cycle count,
 * the per-entry conflict and stall counters, and the number of events
 * executed. A change to how the datapath scans its ready lists must
 * leave every line byte-identical. A mismatch prints the kernel's
 * fresh lines; paste them over its lines in the golden only for an
 * intentional model change.
 *
 * Seeded random traces (tests/golden/datapath_random_counts.txt) add
 * what the kernels leave out: every FuKind, the divider included,
 * loads and stores over one to four arrays, and per-lane backlogs
 * longer than the scan window. Their lines also pin a hash of the
 * datapath spans and flow links, so issue order cannot move either.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "accel/dddg.hh"
#include "core/config_parse.hh"
#include "core/fingerprint.hh"
#include "core/soc.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "trace/tracer.hh"
#include "workloads/workload.hh"

#ifndef GENIE_GOLDEN_DIR
#error "tests/CMakeLists.txt must define GENIE_GOLDEN_DIR"
#endif

namespace genie
{
namespace
{

const std::string kGolden =
    std::string(GENIE_GOLDEN_DIR) + "/datapath_counts.txt";
const std::string kRandomGolden =
    std::string(GENIE_GOLDEN_DIR) + "/datapath_random_counts.txt";

/** The option lists of every pinned design point, in file order. */
std::vector<std::vector<std::string>>
countPoints()
{
    std::vector<std::vector<std::string>> points;
    for (unsigned lanes : {1u, 4u, 16u}) {
        for (unsigned parts : {1u, 4u}) {
            for (unsigned trig : {0u, 1u}) {
                points.push_back({"mem=dma",
                                  "lanes=" + std::to_string(lanes),
                                  "partitions=" + std::to_string(parts),
                                  "triggered=" + std::to_string(trig)});
            }
        }
    }
    for (unsigned lanes : {1u, 4u, 16u}) {
        for (unsigned ports : {1u, 2u}) {
            points.push_back({"mem=cache",
                              "lanes=" + std::to_string(lanes),
                              "cache_ports=" + std::to_string(ports)});
        }
    }
    return points;
}

/** The pinned counters of a finished run of @p soc. */
void
renderStats(std::ostream &os, Soc &soc)
{
    const StatRegistry &reg = soc.statRegistry();
    auto count = [&](const char *path) {
        return static_cast<std::uint64_t>(reg.get(path));
    };
    os << " cycles=" << count("accel.datapath.cycles")
       << " bankConflicts=" << count("accel.datapath.bankConflicts")
       << " spadConflicts=" << count("accel.spad.conflicts")
       << " readyBitStalls=" << count("accel.datapath.readyBitStalls")
       << " memStallCycles=" << count("accel.datapath.memStallCycles")
       << " cacheRejects=" << count("accel.datapath.cacheRejects")
       << " events=" << soc.eventQueue().numExecuted();
}

/** One golden line per design point of @p workload. */
std::string
renderCounts(const std::string &workload)
{
    Trace trace = makeWorkload(workload)->build().trace;
    Dddg dddg(trace);
    std::ostringstream os;
    for (const auto &opts : countPoints()) {
        Soc soc(parseConfig(opts), trace, dddg);
        soc.run();
        os << workload;
        for (const std::string &o : opts)
            os << ' ' << o;
        renderStats(os, soc);
        os << '\n';
    }
    return os.str();
}

/** The lines of golden file @p path that start with @p label. */
std::string
goldenLines(const std::string &path, const std::string &label)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing golden file " << path;
    std::ostringstream os;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(label + ' ', 0) == 0)
            os << line << '\n';
    }
    return os.str();
}

class DatapathCountsTest : public ::testing::TestWithParam<std::string>
{};

TEST_P(DatapathCountsTest, MatchGolden)
{
    std::string fresh = renderCounts(GetParam());
    EXPECT_EQ(fresh, goldenLines(kGolden, GetParam())) << "fresh lines:\n"
                                                        << fresh;
}

INSTANTIATE_TEST_SUITE_P(
    Figure8, DatapathCountsTest, ::testing::ValuesIn(figure8Workloads()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string n = info.param;
        for (auto &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

/**
 * A seeded random trace. It holds every FuKind (FpDiv included),
 * loads and stores over one to four arrays of mixed sizes, word
 * widths and roles, and dependences within each iteration. Every third
 * iteration holds 90 to 149 ops, most of them independent, so its
 * lane's ready list runs past the 64-entry scan window.
 */
Trace
randomTrace(std::uint64_t seed)
{
    static constexpr Opcode computeOps[] = {
        Opcode::IntAdd, Opcode::IntMul, Opcode::IntCmp, Opcode::Shift,
        Opcode::Logic,  Opcode::Index,  Opcode::Mov,    Opcode::FpAdd,
        Opcode::FpMul,  Opcode::FpDiv,  Opcode::Branch, Opcode::Nop};
    Rng rng(seed);
    TraceBuilder tb;
    const auto numArrays = static_cast<unsigned>(1 + rng.below(4));
    std::vector<std::uint64_t> words;
    std::vector<unsigned> wordBytes;
    for (unsigned a = 0; a < numArrays; ++a) {
        // Arrays of 64 words or fewer are completely partitioned.
        words.push_back(rng.chance(0.25) ? 32 : 256u << rng.below(3));
        wordBytes.push_back(rng.chance(0.5) ? 4 : 8);
        // A private array stays in the scratchpad in cache mode too.
        const bool priv = a > 0 && rng.chance(0.3);
        const bool input = !priv && (a == 0 || rng.chance(0.7));
        const bool output = !priv && (a + 1 == numArrays || rng.chance(0.3));
        static const char *const names[] = {"r0", "r1", "r2", "r3"};
        tb.addArray(names[a], words[a] * wordBytes[a], wordBytes[a], input,
                    output, priv);
    }
    const auto iterations = static_cast<unsigned>(6 + rng.below(10));
    for (unsigned it = 0; it < iterations; ++it) {
        tb.beginIteration();
        std::vector<NodeId> mine;
        const auto numOps = static_cast<unsigned>(
            it % 3 == 0 ? 90 + rng.below(60) : 10 + rng.below(40));
        for (unsigned k = 0; k < numOps; ++k) {
            std::vector<NodeId> deps;
            for (std::uint64_t d = rng.below(3); d > 0 && !mine.empty();
                 --d) {
                std::size_t back = std::min<std::size_t>(mine.size(), 16);
                deps.push_back(mine[mine.size() - 1 - rng.below(back)]);
            }
            const std::uint64_t roll = rng.below(100);
            const std::size_t a = rng.below(numArrays);
            const Addr offset = rng.below(words[a]) * wordBytes[a];
            const int id = static_cast<int>(a);
            if (roll < 30) {
                mine.push_back(tb.load(id, offset, wordBytes[a], deps));
            } else if (roll < 40) {
                mine.push_back(tb.store(id, offset, wordBytes[a], deps));
            } else {
                Opcode op = computeOps[rng.below(std::size(computeOps))];
                mine.push_back(tb.op(op, deps));
            }
        }
    }
    return tb.take();
}

/** The option lists each random trace runs at, in file order. */
std::vector<std::vector<std::string>>
randomPoints()
{
    std::vector<std::vector<std::string>> points;
    for (unsigned lanes : {1u, 3u, 8u}) {
        for (unsigned parts : {1u, 2u}) {
            for (unsigned trig : {0u, 1u}) {
                points.push_back({"mem=dma",
                                  "lanes=" + std::to_string(lanes),
                                  "partitions=" + std::to_string(parts),
                                  "triggered=" + std::to_string(trig)});
            }
        }
    }
    for (unsigned lanes : {1u, 3u, 8u})
        points.push_back({"mem=cache", "lanes=" + std::to_string(lanes)});
    return points;
}

/** FNV-1a hash of every datapath span and flow link @p t recorded,
 * in record order: the issue order of the run. */
std::string
spanHash(const Tracer &t)
{
    std::ostringstream os;
    for (const SpanView &s : t.spanViews())
        os << s.begin << ' ' << s.end << ' ' << s.track << ' ' << s.name
           << '\n';
    for (const FlowLink &f : t.flowLinks())
        os << f.from << '>' << f.to << '\n';
    return fingerprintHex(fnv1a64(os.str()));
}

/** One golden line per design point of the random trace of @p seed. */
std::string
renderRandomCounts(std::uint64_t seed)
{
    Trace trace = randomTrace(seed);
    Dddg dddg(trace);
    std::ostringstream os;
    for (const auto &opts : randomPoints()) {
        SocConfig cfg = parseConfig(opts);
        cfg.tracing.enabled = true;
        cfg.tracing.categories = traceCategoryBit(TraceCategory::Datapath);
        Soc soc(cfg, trace, dddg);
        soc.run();
        os << "seed" << seed;
        for (const std::string &o : opts)
            os << ' ' << o;
        renderStats(os, soc);
        os << " spans=" << spanHash(*soc.tracer()) << '\n';
    }
    return os.str();
}

class DatapathRandomCountsTest
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(DatapathRandomCountsTest, MatchGolden)
{
    std::string fresh = renderRandomCounts(GetParam());
    EXPECT_EQ(fresh, goldenLines(kRandomGolden,
                                 "seed" + std::to_string(GetParam())))
        << "fresh lines:\n"
        << fresh;
}

INSTANTIATE_TEST_SUITE_P(Seeded, DatapathRandomCountsTest,
                         ::testing::Range<std::uint64_t>(1, 9));

/**
 * Whether @p dddg's lowered ops, roots and iteration sizes equal a
 * recomputation from @p trace alone. Each op's iteration is implied
 * by the sizes. A node is a root when it has no
 * register dependence and no earlier store wrote a 4-byte word it
 * reads.
 */
::testing::AssertionResult
loweringMatchesTrace(const Trace &trace, const Dddg &dddg)
{
    if (dddg.ops().size() != trace.ops.size())
        return ::testing::AssertionFailure() << "op count differs";
    std::vector<std::uint32_t> iterationOps(
        std::max<std::uint32_t>(trace.numIterations, 1), 0);
    std::vector<NodeId> roots;
    std::set<std::pair<int, Addr>> written;
    for (NodeId i = 0; i < trace.ops.size(); ++i) {
        const TraceOp &op = trace.ops[i];
        ++iterationOps.at(op.iteration);
        DddgOp want;
        bool root = op.deps.empty();
        if (isMemoryOp(op.op)) {
            want.kind = op.op == Opcode::Load ? DddgOp::loadKind
                                              : DddgOp::storeKind;
            want.arrayId = op.arrayId;
            want.offset = static_cast<std::uint32_t>(op.offset);
            for (Addr a = alignDown(op.offset, 4); a < op.offset + op.size;
                 a += 4) {
                if (op.op == Opcode::Store)
                    written.insert({op.arrayId, a});
                else if (written.count({op.arrayId, a}) != 0)
                    root = false;
            }
        } else {
            want.kind = static_cast<std::uint8_t>(fuKindOf(op.op));
        }
        const DddgOp &got = dddg.ops()[i];
        if (got.kind != want.kind || got.arrayId != want.arrayId ||
            got.offset != want.offset) {
            return ::testing::AssertionFailure()
                   << "op " << i << " (" << opcodeName(op.op)
                   << ") lowered to kind " << unsigned{got.kind}
                   << " array " << got.arrayId << " offset " << got.offset;
        }
        if (root)
            roots.push_back(i);
    }
    const auto gotRoots = dddg.roots();
    if (!std::equal(gotRoots.begin(), gotRoots.end(), roots.begin(),
                    roots.end())) {
        const auto first = std::mismatch(gotRoots.begin(), gotRoots.end(),
                                         roots.begin(), roots.end())
                               .first;
        return ::testing::AssertionFailure()
               << "roots differ from index " << first - gotRoots.begin()
               << ": " << gotRoots.size() << " roots, want "
               << roots.size();
    }
    const auto gotIterations = dddg.iterationOps();
    if (!std::equal(gotIterations.begin(), gotIterations.end(),
                    iterationOps.begin(), iterationOps.end()))
        return ::testing::AssertionFailure() << "iteration sizes differ";
    return ::testing::AssertionSuccess();
}

TEST(DddgLowering, MatchesEveryWorkloadTrace)
{
    const auto names = workloadNames();
    EXPECT_EQ(names.size(), 16u);
    for (const std::string &name : names) {
        const Trace trace = makeWorkload(name)->build().trace;
        EXPECT_TRUE(loweringMatchesTrace(trace, Dddg(trace))) << name;
    }
}

TEST(DddgLowering, MatchesEverySeededTrace)
{
    for (std::uint64_t seed = 1; seed < 9; ++seed) {
        const Trace trace = randomTrace(seed);
        EXPECT_TRUE(loweringMatchesTrace(trace, Dddg(trace)))
            << "seed " << seed;
    }
}

TEST(DddgLowering, KeepsOffsetsOffTheWordGrid)
{
    // Unaligned offsets and odd word sizes, which the workloads never
    // emit, still lower to their exact byte offset.
    TraceBuilder tb;
    const int odd = tb.addArray("odd", 300, 12, true, false);
    const int wide = tb.addArray("wide", 4096, 128, true, true);
    tb.beginIteration();
    NodeId a = tb.load(odd, 25, 4);
    NodeId b = tb.load(wide, 200, 8);
    tb.store(wide, 200, 8, {a, b});
    tb.beginIteration();
    tb.load(wide, 203, 1);
    const Trace trace = tb.take();
    const Dddg dddg(trace);
    EXPECT_TRUE(loweringMatchesTrace(trace, dddg));
    EXPECT_EQ(dddg.ops()[0].offset, 25u);
    EXPECT_EQ(dddg.ops()[3].offset, 203u);
    ASSERT_EQ(dddg.roots().size(), 2u);
    EXPECT_EQ(dddg.iterationOps()[1], 1u);
}

TEST(DddgLowering, RejectsAnOffsetPast32Bits)
{
    TraceBuilder tb;
    const int huge = tb.addArray("huge", std::uint64_t{1} << 33, 4, true,
                                 false);
    tb.beginIteration();
    tb.load(huge, std::uint64_t{1} << 32, 4);
    const Trace trace = tb.take();
    EXPECT_THROW(Dddg{trace}, FatalError);
}

} // namespace
} // namespace genie
