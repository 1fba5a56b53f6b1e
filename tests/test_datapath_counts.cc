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
#include <sstream>
#include <string>
#include <vector>

#include "accel/dddg.hh"
#include "core/config_parse.hh"
#include "core/fingerprint.hh"
#include "core/soc.hh"
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

} // namespace
} // namespace genie
