/**
 * @file
 * Shared pieces of the hash-pinned goldens (event_order.txt,
 * blame.txt, multi_soc.txt): the six paper design points and the
 * `label fnv1a64=<16 hex> bytes=<n>` line that reduces one run's
 * output to a hash and a byte length.
 */

#ifndef GENIE_TESTS_GOLDEN_LINES_HH
#define GENIE_TESTS_GOLDEN_LINES_HH

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/fingerprint.hh"

#ifndef GENIE_GOLDEN_DIR
#error "tests/CMakeLists.txt must define GENIE_GOLDEN_DIR"
#endif

namespace genie
{

/** One pinned design point. */
struct DesignPointSpec
{
    const char *name;
    const char *workload;
    const char *options;
};

/** The six paper design points (Figures 6 and 7 axes over the
 * MachSuite kernels). */
inline const DesignPointSpec paperPoints[] = {
    {"stencil2d-dma-opt", "stencil-stencil2d",
     "mem=dma lanes=8 partitions=8 pipelined=1 triggered=1"},
    {"gemm-dma-baseline", "gemm-ncubed",
     "mem=dma lanes=4 partitions=4"},
    {"md-knn-cache", "md-knn",
     "mem=cache lanes=4 cache_kb=16 cache_ports=2"},
    {"stencil3d-dma-opt", "stencil-stencil3d",
     "mem=dma lanes=8 partitions=8 pipelined=1 triggered=1"},
    {"spmv-crs-cache", "spmv-crs",
     "mem=cache lanes=4 cache_kb=32 cache_ports=2"},
    {"fft-dma-pipelined", "fft-transpose",
     "mem=dma lanes=8 partitions=8 pipelined=1"},
};

/** Split a space-separated `key=value` option string. */
inline std::vector<std::string>
splitOptions(const char *options)
{
    std::vector<std::string> out;
    std::istringstream iss(options);
    std::string tok;
    while (iss >> tok)
        out.push_back(tok);
    return out;
}

/** The golden line for @p label whose whole output is @p dump. */
inline std::string
hashLine(const std::string &label, const std::string &dump)
{
    return label + " fnv1a64=" + fingerprintHex(fnv1a64(dump)) +
           " bytes=" + std::to_string(dump.size()) + "\n";
}

/** The line for @p label in the golden file @p name ("" if absent). */
inline std::string
goldenFor(const std::string &name, const std::string &label)
{
    const std::string path = std::string(GENIE_GOLDEN_DIR) + "/" + name;
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing golden file " << path;
    const std::string prefix = label + ' ';
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(prefix, 0) == 0)
            return line + "\n";
    }
    return "";
}

/** Compare @p fresh golden lines with the lines for the same labels
 * in the golden file @p name. */
inline void
expectGolden(const std::string &name, const std::vector<std::string> &fresh)
{
    std::string got, want;
    for (const std::string &line : fresh) {
        got += line;
        want += goldenFor(name, line.substr(0, line.find(' ')));
    }
    EXPECT_EQ(got, want) << "fresh lines:\n" << got;
}

} // namespace genie

#endif // GENIE_TESTS_GOLDEN_LINES_HH
