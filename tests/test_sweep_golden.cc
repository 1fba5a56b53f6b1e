/**
 * @file
 * Golden-figure sweeps: reduced Figure 6 and Figure 8 spaces whose
 * full results JSON is checked in under tests/golden/ and asserted
 * byte-identical here.
 *
 * The contract under test is the SweepEngine determinism guarantee:
 * the genie-sweep-results-1 export must not change across
 *  - thread counts (1, 4, hardware concurrency),
 *  - cold vs. warm result caches (with cache hits actually taken),
 *  - interrupted-then-resumed (through the result store) vs.
 *    uninterrupted runs,
 * and must match the checked-in golden bytes produced by the
 * genie_sweep CLI. Regenerate a golden only for an intentional model
 * change:
 *
 *   genie_sweep stencil-stencil2d --space=fig6 \
 *     --filter="lanes=1,4;partitions=1,4" \
 *     --out=tests/golden/sweep_fig6_stencil2d.json
 *   genie_sweep stencil-stencil2d --space=fig8 \
 *     --filter="lanes=1,4;partitions=1,4;cache_kb=2,16;cache_line=64;\
 * cache_ports=1,4;cache_assoc=4" \
 *     --out=tests/golden/sweep_fig8_stencil2d.json
 *   genie_sweep stencil-stencil2d --space=iface \
 *     --filter="lanes=1,4;partitions=1,4" \
 *     --out=tests/golden/sweep_iface_stencil2d.json
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dse/result_json.hh"
#include "dse/result_store.hh"
#include "dse/sweep.hh"
#include "dse/sweep_engine.hh"
#include "workloads/workload.hh"

#ifndef GENIE_GOLDEN_DIR
#error "tests/CMakeLists.txt must define GENIE_GOLDEN_DIR"
#endif

namespace genie
{
namespace
{

const char *const kWorkload = "stencil-stencil2d";

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing golden file " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string
render(const std::vector<DesignPoint> &points)
{
    std::ostringstream os;
    writeSweepResultsJson(os, points, kWorkload);
    return os.str();
}

/** The reduced Fig. 6 space: the DMA-optimization cross-product at
 * lanes/partitions {1,4} — 16 points, exactly what the golden was
 * generated from. */
std::vector<SocConfig>
fig6Space()
{
    SpaceFilter f = SpaceFilter::parse("lanes=1,4;partitions=1,4");
    return filterConfigs(DesignSpace::dmaOptions(SocConfig{}), f);
}

/** The reduced Fig. 8 space: DMA then cache designs, filtered the
 * same way genie_sweep --space=fig8 enumerates them — 4 + 8 points. */
std::vector<SocConfig>
fig8Space()
{
    SpaceFilter f = SpaceFilter::parse(
        "lanes=1,4;partitions=1,4;cache_kb=2,16;cache_line=64;"
        "cache_ports=1,4;cache_assoc=4");
    SocConfig base;
    auto configs = DesignSpace::dma(base);
    auto cacheConfigs = DesignSpace::cache(base);
    configs.insert(configs.end(), cacheConfigs.begin(),
                   cacheConfigs.end());
    return filterConfigs(configs, f);
}

/** The reduced Genie-Iface space: spin/interrupt completion over
 * DMA, ACP, and per-lane cache designs at lanes/partitions {1,4} —
 * 20 points ((4 dma + 4 acp + 2 cache) x 2 completion modes). */
std::vector<SocConfig>
ifaceSpace()
{
    SpaceFilter f = SpaceFilter::parse("lanes=1,4;partitions=1,4");
    return filterConfigs(DesignSpace::iface(SocConfig{}), f);
}

struct GoldenRig
{
    GoldenRig()
        : built(makeWorkload(kWorkload)->build()), dddg(built.trace)
    {}

    std::vector<DesignPoint>
    sweep(const std::vector<SocConfig> &configs, SweepOptions options)
    {
        SweepEngine engine(std::move(options));
        return engine.run(configs, built.trace, dddg);
    }

    WorkloadOutput built;
    Dddg dddg;
};

GoldenRig &
rig()
{
    static GoldenRig r;
    return r;
}

TEST(SweepGolden, Fig6MatchesGoldenBytes)
{
    auto points = rig().sweep(fig6Space(), {});
    EXPECT_EQ(render(points),
              readFile(std::string(GENIE_GOLDEN_DIR) +
                       "/sweep_fig6_stencil2d.json"));
}

TEST(SweepGolden, Fig8MatchesGoldenBytes)
{
    auto points = rig().sweep(fig8Space(), {});
    EXPECT_EQ(render(points),
              readFile(std::string(GENIE_GOLDEN_DIR) +
                       "/sweep_fig8_stencil2d.json"));
}

TEST(SweepGolden, IfaceMatchesGoldenBytes)
{
    auto configs = ifaceSpace();
    ASSERT_EQ(configs.size(), 20u);
    auto points = rig().sweep(configs, {});
    EXPECT_EQ(render(points),
              readFile(std::string(GENIE_GOLDEN_DIR) +
                       "/sweep_iface_stencil2d.json"));
}

TEST(SweepGolden, ByteStableAcrossThreadCounts)
{
    auto configs = fig6Space();
    std::vector<unsigned> counts = {1, 4};
    unsigned hw = std::thread::hardware_concurrency();
    if (hw > 1 && hw != 4)
        counts.push_back(hw);

    const std::string golden =
        readFile(std::string(GENIE_GOLDEN_DIR) +
                 "/sweep_fig6_stencil2d.json");
    for (unsigned threads : counts) {
        SweepOptions options;
        options.threads = threads;
        auto points = rig().sweep(configs, options);
        EXPECT_EQ(render(points), golden)
            << "results diverged at threads=" << threads;
    }
}

TEST(SweepGolden, ByteStableColdVersusWarmCache)
{
    auto configs = fig8Space();
    ResultCache cache;

    SweepOptions cold;
    cold.cache = &cache;
    auto coldPoints = rig().sweep(configs, cold);
    ASSERT_EQ(cache.hits(), 0u);

    SweepOptions warm;
    warm.cache = &cache;
    auto warmPoints = rig().sweep(configs, warm);
    EXPECT_EQ(cache.hits(), configs.size())
        << "the warm run must be served entirely from the cache";
    EXPECT_EQ(render(warmPoints), render(coldPoints));
    EXPECT_EQ(render(warmPoints),
              readFile(std::string(GENIE_GOLDEN_DIR) +
                       "/sweep_fig8_stencil2d.json"));
}

TEST(SweepGolden, ByteStableAcrossInterruptionAndResume)
{
    auto configs = fig6Space();
    const std::string dir =
        ::testing::TempDir() + "genie_golden_resume_store";
    std::filesystem::remove_all(dir);

    {
        ResultStore store;
        store.open(dir);
        SweepOptions interrupted;
        interrupted.store = &store;
        interrupted.maxFreshPoints = configs.size() / 2;
        SweepEngine engine(std::move(interrupted));
        engine.run(configs, rig().built.trace, rig().dddg);
        ASSERT_TRUE(engine.interrupted());
    }

    // A new engine and a reopened store, as a re-run process sees it.
    ResultStore store;
    store.open(dir);
    SweepOptions resume;
    resume.store = &store;
    SweepEngine engine(std::move(resume));
    auto points = engine.run(configs, rig().built.trace, rig().dddg);
    EXPECT_FALSE(engine.interrupted());
    EXPECT_EQ(engine.storeHits(), configs.size() / 2);
    EXPECT_EQ(render(points),
              readFile(std::string(GENIE_GOLDEN_DIR) +
                       "/sweep_fig6_stencil2d.json"))
        << "an interrupted-then-resumed sweep must reproduce the "
           "uninterrupted bytes";
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace genie
