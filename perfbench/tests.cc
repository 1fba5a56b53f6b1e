/**
 * @file
 * Tests of the benchmark's own logic: the seeded point generator, the
 * tail percentile rule, the output checks and the kind -> module map.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "bench.hh"
#include "core/fingerprint.hh"
#include "core/soc.hh"
#include "dse/sweep.hh"
#include "metrics/profiler.hh"
#include "workloads/workload.hh"

namespace
{

using namespace perfbench;

std::vector<std::string>
identities(const std::vector<Point> &points)
{
    std::vector<std::string> out;
    for (const Point &p : points)
        out.push_back(p.kernel + "/" + std::to_string(p.fingerprint));
    return out;
}

TEST(Generator, SameSeedGivesSamePoints)
{
    for (const std::string &w : workloadNames()) {
        EXPECT_EQ(identities(generatePoints(w, 7)),
                  identities(generatePoints(w, 7)))
            << w;
    }
}

TEST(Generator, OtherSeedGivesOtherPointsOfTheSameShape)
{
    for (const std::string &w : workloadNames()) {
        std::vector<Point> a = generatePoints(w, 1);
        std::vector<Point> b = generatePoints(w, 2);
        ASSERT_EQ(a.size(), b.size()) << w;
        EXPECT_NE(identities(a), identities(b)) << w;
        for (std::size_t i = 0; i < a.size(); ++i) {
            // One draw per stratum: the kernel and every axis that moves
            // host cost sit at the same position under every seed.
            const genie::SocConfig &x = a[i].config, &y = b[i].config;
            EXPECT_EQ(a[i].kernel, b[i].kernel) << w << " " << i;
            EXPECT_EQ(x.lanes, y.lanes) << w << " " << i;
            if (w == "dse-dma") {
                EXPECT_EQ(x.spadPartitions, y.spadPartitions) << i;
                EXPECT_EQ(x.dma.triggeredCompute, y.dma.triggeredCompute)
                    << i;
            } else {
                EXPECT_EQ(x.cache.sizeBytes, y.cache.sizeBytes) << i;
                EXPECT_EQ(x.cache.ports, y.cache.ports) << i;
            }
        }
    }
}

TEST(Generator, PointsComeFromTheirDesignSpaces)
{
    const genie::SocConfig base;
    std::set<std::uint64_t> dma, cache;
    for (const auto &c : genie::DesignSpace::dmaOptions(base))
        dma.insert(genie::configFingerprint(c));
    for (const auto &c : genie::DesignSpace::cache(base))
        cache.insert(genie::configFingerprint(c));

    const std::vector<std::pair<std::string, const std::set<std::uint64_t> *>>
        spaces = {{"dse-dma", &dma}, {"dse-cache", &cache}};
    for (const auto &[w, space] : spaces) {
        std::set<std::string> kernels;
        for (const Point &p : generatePoints(w, 3)) {
            EXPECT_EQ(p.fingerprint, genie::configFingerprint(p.config));
            EXPECT_TRUE(space->count(p.fingerprint)) << w;
            kernels.insert(p.kernel);
        }
        EXPECT_EQ(kernels.size(), workloadKernels(w).size()) << w;
    }
    EXPECT_EQ(generatePoints("dse-dma", 3).size(), 200u);
    EXPECT_EQ(generatePoints("dse-cache", 3).size(), 480u);
}

TEST(Statistics, TailPercentileLeavesTenSamplesBeyond)
{
    EXPECT_EQ(tailPercentile(100), 90);
    EXPECT_EQ(tailPercentile(120), 91);
    EXPECT_EQ(tailPercentile(60), 83);
    EXPECT_EQ(tailPercentile(1000), 99);
    EXPECT_EQ(tailPercentile(10), 0);
    for (std::size_t n = 11; n <= 400; ++n) {
        int p = tailPercentile(n);
        ASSERT_GT(p, 0) << n;
        auto rank = [n](int q) {
            return static_cast<std::size_t>(
                std::ceil(q * static_cast<double>(n) / 100.0));
        };
        EXPECT_GE(n - rank(p), 10u) << n;
        if (p < 99) {
            EXPECT_LT(n - rank(p + 1), 10u) << n;
        }
    }
}

TEST(Statistics, TailAndMedianOfKnownSamples)
{
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    Tail t = tailOf(v);
    EXPECT_EQ(t.percentile, 90);
    EXPECT_EQ(t.samples, 100u);
    EXPECT_EQ(t.value, 90.0);
    EXPECT_EQ(median(v), 50.5);
    EXPECT_EQ(median({3, 1, 2}), 2.0);
    EXPECT_EQ(tailOf({1, 2, 3}).value, 0.0);
}

genie::SocResults
simulate(const std::string &kernel, const genie::SocConfig &config,
         genie::HostProfiler *profiler = nullptr)
{
    auto out = genie::makeWorkload(kernel)->build();
    genie::Dddg dddg(out.trace);
    genie::Soc soc(config, out.trace, dddg);
    if (profiler)
        soc.eventQueue().setProfiler(profiler);
    return soc.run();
}

TEST(Checks, PerturbedResultCountsAsFailed)
{
    genie::SocResults r = simulate("aes-aes", genie::SocConfig{});
    Reference ref(1);
    Checks checks;
    checks.point(ref.matches(0, resultsText(r)), "first run");
    checks.point(ref.matches(0, resultsText(r)), "identical rerun");
    EXPECT_EQ(checks.failed, 0u);

    genie::SocResults energy = r;
    energy.energyPj = std::nextafter(r.energyPj, 2 * r.energyPj + 1);
    checks.point(ref.matches(0, resultsText(energy)), "last-bit energy");
    genie::SocResults ticks = r;
    ticks.totalTicks += 1;
    checks.point(ref.matches(0, resultsText(ticks)), "one tick");
    genie::SocResults stalled = r;
    stalled.stalled = true;
    checks.point(ref.matches(0, resultsText(stalled)), "stalled");

    EXPECT_EQ(checks.attempted, 5u);
    EXPECT_EQ(checks.failed, 3u);
    EXPECT_FALSE(checks.passed());
}

TEST(Modules, EveryKindSeenInARunHasAModule)
{
    // One point of each interface regime and completion mode, so DMA,
    // flush, cache, TLB, ACP and interrupt events all occur.
    genie::HostProfiler profiler;
    const genie::SocConfig base;
    std::vector<genie::SocConfig> configs;
    for (const auto &c : genie::DesignSpace::iface(base)) {
        if (c.lanes == 4 && (c.memType == genie::MemInterface::Cache ||
                             c.spadPartitions == 4))
            configs.push_back(c);
    }
    ASSERT_EQ(configs.size(), 6u);
    for (const auto &c : configs)
        simulate("spmv-crs", c, &profiler);

    std::set<std::string> modules;
    for (const auto &[kind, prof] : profiler.byKind()) {
        std::string mod = moduleOfKind(kind);
        EXPECT_FALSE(mod.empty()) << kind;
        modules.insert(mod);
    }
    for (const char *want : {"accel", "mem.bus", "mem.cache", "mem.dram",
                             "mem.tlb", "dma", "cpu", "iface", "core"})
        EXPECT_TRUE(modules.count(want)) << want;
    for (const std::string &mod : modules) {
        EXPECT_NE(std::find(moduleNames().begin(), moduleNames().end(), mod),
                  moduleNames().end())
            << mod;
    }
    EXPECT_EQ(moduleOfKind("no.such.kind"), "");
}

TEST(Spans, ParentsAndPointsAreRecorded)
{
    SpanRecorder rec(true);
    {
        ScopedSpan point(rec, "point", 3);
        ScopedSpan inner(rec, "run", 3);
    }
    ASSERT_EQ(rec.spans().size(), 2u);
    EXPECT_EQ(rec.spans()[0].parent, -1);
    EXPECT_EQ(rec.spans()[1].parent, 0);
    EXPECT_EQ(rec.spans()[1].point, 3u);
    EXPECT_LE(rec.spans()[0].startNs, rec.spans()[1].startNs);
    EXPECT_GE(rec.spans()[0].endNs, rec.spans()[1].endNs);
    EXPECT_EQ(rec.durations("run", "point").size(), 1u);
    EXPECT_TRUE(rec.durations("run", "bare").empty());

    SpanRecorder off(false);
    {
        ScopedSpan s(off, "point", 1);
    }
    EXPECT_TRUE(off.spans().empty());
}

} // namespace
