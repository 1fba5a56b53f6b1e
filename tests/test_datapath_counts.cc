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
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "accel/dddg.hh"
#include "core/config_parse.hh"
#include "core/soc.hh"
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
        const StatRegistry &reg = soc.statRegistry();
        auto count = [&](const char *path) {
            return static_cast<std::uint64_t>(reg.get(path));
        };
        os << workload;
        for (const std::string &o : opts)
            os << ' ' << o;
        os << " cycles=" << count("accel.datapath.cycles")
           << " bankConflicts=" << count("accel.datapath.bankConflicts")
           << " spadConflicts=" << count("accel.spad.conflicts")
           << " readyBitStalls=" << count("accel.datapath.readyBitStalls")
           << " memStallCycles=" << count("accel.datapath.memStallCycles")
           << " cacheRejects=" << count("accel.datapath.cacheRejects")
           << " events=" << soc.eventQueue().numExecuted() << '\n';
    }
    return os.str();
}

/** The golden file's lines for @p workload. */
std::string
goldenCounts(const std::string &workload)
{
    std::ifstream in(kGolden);
    EXPECT_TRUE(in.good()) << "missing golden file " << kGolden;
    std::ostringstream os;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(workload + ' ', 0) == 0)
            os << line << '\n';
    }
    return os.str();
}

class DatapathCountsTest : public ::testing::TestWithParam<std::string>
{};

TEST_P(DatapathCountsTest, MatchGolden)
{
    std::string fresh = renderCounts(GetParam());
    EXPECT_EQ(fresh, goldenCounts(GetParam())) << "fresh lines:\n"
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

} // namespace
} // namespace genie
