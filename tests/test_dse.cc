/**
 * @file
 * Design-space-exploration tests: sweep enumeration, the sweep
 * runner, Pareto-frontier properties, EDP-optimal selection, Kiviat
 * normalization, and the isolated-vs-co-designed comparison.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <sstream>

#include "core/config_parse.hh"
#include "core/fingerprint.hh"
#include "dse/pareto.hh"
#include "dse/result_json.hh"
#include "dse/result_store.hh"
#include "dse/sweep.hh"
#include "dse/sweep_engine.hh"
#include "workloads/workload.hh"

namespace genie
{
namespace
{

struct SmallSpace
{
    SmallSpace()
        : trace(makeWorkload("stencil-stencil2d")->build().trace),
          dddg(trace)
    {
        // A small but real sweep: lanes x partitions at fixed opts.
        SocConfig base;
        for (unsigned lanes : {1u, 4u, 16u}) {
            for (unsigned parts : {1u, 16u}) {
                SocConfig c = base;
                c.lanes = lanes;
                c.spadPartitions = parts;
                c.dma.pipelined = true;
                c.dma.triggeredCompute = true;
                configs.push_back(c);
            }
        }
        points = runSweep(configs, trace, dddg, 1);
    }

    Trace trace;
    Dddg dddg;
    std::vector<SocConfig> configs;
    std::vector<DesignPoint> points;
};

SmallSpace &
space()
{
    static SmallSpace s;
    return s;
}

TEST(DesignSpace, EnumerationsMatchFigure3)
{
    SocConfig base;
    EXPECT_EQ(DesignSpace::isolated(base).size(), 25u);
    EXPECT_EQ(DesignSpace::dma(base).size(), 25u);
    EXPECT_EQ(DesignSpace::dmaOptions(base).size(), 100u);
    EXPECT_EQ(DesignSpace::cache(base).size(),
              5u * 6u * 3u * 4u * 2u);
}

TEST(DesignSpace, DmaSweepAppliesAllOptimizations)
{
    for (const auto &c : DesignSpace::dma(SocConfig{})) {
        EXPECT_TRUE(c.dma.pipelined);
        EXPECT_TRUE(c.dma.triggeredCompute);
        EXPECT_FALSE(c.isolated);
    }
}

TEST(DesignSpace, IsolatedAsCacheHoldsWorkingSet)
{
    SocConfig iso;
    iso.lanes = 8;
    iso.spadPartitions = 16;
    iso.isolated = true;
    SocConfig mapped = DesignSpace::isolatedAsCache(iso, 20 * 1024);
    EXPECT_EQ(mapped.memType, MemInterface::Cache);
    EXPECT_FALSE(mapped.isolated);
    EXPECT_GE(mapped.cache.sizeBytes, 20u * 1024u);
    EXPECT_EQ(mapped.cache.ports, 8u);
}

TEST(Sweep, PreservesConfigOrder)
{
    const auto &s = space();
    ASSERT_EQ(s.points.size(), s.configs.size());
    for (std::size_t i = 0; i < s.points.size(); ++i) {
        EXPECT_EQ(s.points[i].config.lanes, s.configs[i].lanes);
        EXPECT_EQ(s.points[i].config.spadPartitions,
                  s.configs[i].spadPartitions);
    }
}

TEST(Sweep, AllRunsProduceResults)
{
    for (const auto &p : space().points) {
        EXPECT_GT(p.results.totalTicks, 0u);
        EXPECT_GT(p.results.energyPj, 0.0);
        EXPECT_GT(p.results.avgPowerMw, 0.0);
    }
}

TEST(Sweep, MultithreadedMatchesSequential)
{
    const auto &s = space();
    auto threaded = runSweep(s.configs, s.trace, s.dddg, 4);
    ASSERT_EQ(threaded.size(), s.points.size());
    for (std::size_t i = 0; i < threaded.size(); ++i) {
        EXPECT_EQ(threaded[i].results.totalTicks,
                  s.points[i].results.totalTicks)
            << "simulation must be deterministic across threads";
        EXPECT_DOUBLE_EQ(threaded[i].results.energyPj,
                         s.points[i].results.energyPj);
    }
}

TEST(Pareto, FrontierIsNonDominated)
{
    const auto &s = space();
    auto frontier = paretoFrontier(s.points);
    ASSERT_FALSE(frontier.empty());
    for (std::size_t fi : frontier) {
        for (std::size_t j = 0; j < s.points.size(); ++j) {
            if (j == fi)
                continue;
            bool dominates =
                s.points[j].results.totalTicks <
                    s.points[fi].results.totalTicks &&
                s.points[j].results.avgPowerMw <
                    s.points[fi].results.avgPowerMw;
            EXPECT_FALSE(dominates)
                << "frontier point " << fi << " dominated by " << j;
        }
    }
}

TEST(Pareto, FrontierSortedByDelayWithDecreasingPower)
{
    auto frontier = paretoFrontier(space().points);
    for (std::size_t i = 1; i < frontier.size(); ++i) {
        const auto &prev = space().points[frontier[i - 1]].results;
        const auto &cur = space().points[frontier[i]].results;
        EXPECT_LE(prev.totalTicks, cur.totalTicks);
        EXPECT_GT(prev.avgPowerMw, cur.avgPowerMw);
    }
}

TEST(Pareto, EdpOptimalIsMinimal)
{
    const auto &s = space();
    std::size_t best = edpOptimal(s.points);
    for (const auto &p : s.points)
        EXPECT_GE(p.results.edp, s.points[best].results.edp);
}

TEST(Pareto, KiviatNormalizesToReference)
{
    const auto &s = space();
    auto axes = kiviatAxes(s.points[0], s.points[0]);
    EXPECT_DOUBLE_EQ(axes.lanes, 1.0);
    EXPECT_DOUBLE_EQ(axes.sramSize, 1.0);
    EXPECT_DOUBLE_EQ(axes.memBandwidth, 1.0);
}

TEST(Pareto, CodesignComparisonImprovesEdp)
{
    const auto &s = space();
    auto isolatedConfigs = DesignSpace::isolated(SocConfig{});
    // Trim for speed: lanes x partitions at the extremes.
    std::vector<SocConfig> trimmed;
    for (const auto &c : isolatedConfigs) {
        if ((c.lanes == 1 || c.lanes == 16) &&
            (c.spadPartitions == 1 || c.spadPartitions == 16))
            trimmed.push_back(c);
    }
    auto isolatedPoints = runSweep(trimmed, s.trace, s.dddg, 1);

    auto cmp = compareCodesign(
        isolatedPoints, s.points, [&](const SocConfig &iso) {
            SocConfig full = iso;
            full.isolated = false;
            full.dma.pipelined = true;
            full.dma.triggeredCompute = true;
            DesignPoint p;
            p.config = full;
            p.results = runDesign(full, s.trace, s.dddg);
            return p;
        });

    EXPECT_GE(cmp.edpImprovement, 1.0)
        << "the co-designed optimum cannot be worse than the "
           "isolated design evaluated under system effects";
    EXPECT_GT(cmp.isolatedUnderSystem.results.totalTicks,
              cmp.isolatedOptimal.results.totalTicks);
}

// ---------------------------------------------------------------------
// SweepEngine: scheduling, memoization, checkpointing, failure
// ---------------------------------------------------------------------

/** Byte-comparable rendering of a whole sweep. */
std::string
sweepJson(const std::vector<DesignPoint> &points)
{
    std::ostringstream os;
    writeSweepResultsJson(os, points, "test");
    return os.str();
}

TEST(SweepEngine, WorkerExceptionCarriesOffendingConfig)
{
    // The old runSweep lost worker exceptions (std::terminate via an
    // unjoined throw or a silently default-constructed result). The
    // engine must surface the throw as SweepError with the failing
    // config attached, after finishing the rest of the sweep.
    const auto &s = space();
    std::vector<SocConfig> configs = s.configs;
    SocConfig bad = configs.front();
    bad.lanes = 0; // validateSocConfig: fatal
    configs.insert(configs.begin() + 3, bad);

    SweepEngine engine;
    try {
        engine.run(configs, s.trace, s.dddg);
        FAIL() << "a failing design point must raise SweepError";
    } catch (const SweepError &e) {
        ASSERT_EQ(e.failures().size(), 1u);
        const FailedPoint &f = e.failures().front();
        EXPECT_EQ(f.index, 3u);
        EXPECT_EQ(f.config.lanes, 0u)
            << "the offending config must ride along";
        EXPECT_NE(f.message.find("lanes"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("lanes"),
                  std::string::npos);
    }
    EXPECT_EQ(engine.progress().failed, 1u);
}

TEST(SweepEngine, ContinueOnErrorCompletesRemainingPoints)
{
    const auto &s = space();
    std::vector<SocConfig> configs = s.configs;
    SocConfig bad = configs.front();
    bad.lanes = 0;
    configs.insert(configs.begin() + 2, bad);

    SweepOptions options;
    options.continueOnError = true;
    options.threads = 4;
    SweepEngine engine(std::move(options));
    auto points = engine.run(configs, s.trace, s.dddg);

    ASSERT_EQ(points.size(), configs.size());
    ASSERT_EQ(engine.failures().size(), 1u);
    EXPECT_EQ(engine.failures().front().index, 2u);
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (i == 2)
            continue;
        EXPECT_GT(points[i].results.totalTicks, 0u)
            << "every healthy point must still be simulated";
    }
}

TEST(SweepEngine, SharedDddgMatchesSerialRunsOnFreshDddgs)
{
    // Four workers schedule one Dddg, whose lowered ops, roots and
    // iteration sizes every point reads. Each point must come out as
    // if it had a graph of its own.
    std::vector<std::vector<std::string>> options;
    for (unsigned lanes : {1u, 3u, 8u}) {
        for (unsigned parts : {1u, 4u}) {
            for (unsigned trig : {0u, 1u}) {
                options.push_back({"mem=dma",
                                   "lanes=" + std::to_string(lanes),
                                   "partitions=" + std::to_string(parts),
                                   "triggered=" + std::to_string(trig)});
            }
        }
    }
    options.push_back({"mem=cache", "lanes=1"});
    options.push_back({"mem=cache", "lanes=4", "cache_ports=2"});
    options.push_back({"mem=dma", "lanes=4", "perfect_mem=1"});
    options.push_back({"mem=cache", "lanes=4", "perfect_mem=1"});
    options.push_back({"mem=dma", "lanes=4", "partitions=4", "triggered=1",
                       "invocations=3"});
    options.push_back({"mem=cache", "lanes=4", "invocations=3"});
    std::vector<SocConfig> configs;
    for (const auto &o : options)
        configs.push_back(parseConfig(o));

    for (const char *kernel : {"stencil-stencil2d", "spmv-crs"}) {
        const Trace trace = makeWorkload(kernel)->build().trace;
        const Dddg shared(trace);
        SweepOptions sweepOptions;
        sweepOptions.threads = 4;
        SweepEngine engine(std::move(sweepOptions));
        auto points = engine.run(configs, trace, shared);
        ASSERT_EQ(points.size(), configs.size());
        for (std::size_t i = 0; i < configs.size(); ++i) {
            const Dddg fresh(trace);
            EXPECT_EQ(resultsJson(points[i].results),
                      resultsJson(runDesign(configs[i], trace, fresh)))
                << kernel << ' ' << configCanonicalKey(configs[i]);
        }
    }
}

TEST(SweepEngine, ResultCacheDedupesAcrossRuns)
{
    const auto &s = space();
    ResultCache cache;
    SweepOptions options;
    options.cache = &cache;
    SweepEngine engine(std::move(options));

    auto cold = engine.run(s.configs, s.trace, s.dddg);
    EXPECT_EQ(engine.progress().done, s.configs.size());
    EXPECT_EQ(cache.hits(), 0u);

    auto warm = engine.run(s.configs, s.trace, s.dddg);
    EXPECT_EQ(engine.progress().done, 0u)
        << "a warm cache must satisfy every repeated point";
    EXPECT_EQ(engine.progress().cached, s.configs.size());
    EXPECT_GT(cache.hits(), 0u);
    EXPECT_EQ(sweepJson(warm), sweepJson(cold))
        << "cached results must be byte-identical to simulated ones";
}

TEST(SweepEngine, CacheDedupesOverlappingSpaces)
{
    // Fig. 6 (dmaOptions) contains the Fig. 8 DMA space as its
    // all-optimizations subset: sweeping both through one cache must
    // dedupe every Fig. 8 point. On CI's reduced stencil2d space that
    // is 20 points: 16 simulated, 4 cached.
    const auto &s = space();
    SpaceFilter filter = SpaceFilter::parse("lanes=1,4;partitions=1,4");
    SocConfig base;
    auto fig6 = filterConfigs(DesignSpace::dmaOptions(base), filter);
    auto fig8 = filterConfigs(DesignSpace::dma(base), filter);
    ASSERT_EQ(fig6.size(), 16u);
    ASSERT_EQ(fig8.size(), 4u);

    ResultCache cache;
    SweepOptions options;
    options.cache = &cache;
    SweepEngine engine(std::move(options));
    engine.run(fig6, s.trace, s.dddg);
    EXPECT_EQ(engine.progress().done, 16u);
    EXPECT_EQ(cache.hits(), 0u);
    engine.run(fig8, s.trace, s.dddg);
    EXPECT_EQ(cache.hits(), fig8.size());
    EXPECT_EQ(cache.hits(), 4u);
    EXPECT_EQ(engine.progress().done, 0u);
}

TEST(SweepEngine, SharedCacheKeepsKernelsApart)
{
    // Two kernels through one cache, with one config in common: the
    // second kernel must simulate its own trace, never be served the
    // first kernel's results for the shared config.
    SocConfig shared;
    shared.lanes = 4;
    shared.spadPartitions = 4;
    SocConfig wide = shared;
    wide.lanes = 8;

    struct Kernel
    {
        std::string name;
        std::vector<SocConfig> configs;
    };
    const std::vector<Kernel> kernels = {
        {"gemm-ncubed", {shared, wide}},
        {"aes-aes", {shared}},
    };

    ResultCache cache;
    SweepOptions options;
    options.cache = &cache;
    SweepEngine engine(std::move(options));
    for (const Kernel &k : kernels) {
        Trace trace = makeWorkload(k.name)->build().trace;
        Dddg dddg(trace);
        auto points = engine.run(k.configs, trace, dddg);
        EXPECT_EQ(engine.progress().cached, 0u) << k.name;
        auto fresh = SweepEngine().run(k.configs, trace, dddg);
        EXPECT_EQ(sweepJson(points), sweepJson(fresh))
            << k.name << " must match a fresh single-kernel run";
    }
    EXPECT_EQ(cache.size(), 3u);
}

TEST(SweepEngine, InterruptedSweepResumesFromStore)
{
    const auto &s = space();
    const std::string dir =
        ::testing::TempDir() + "genie_sweep_resume_store";
    std::filesystem::remove_all(dir);

    // Uninterrupted reference run.
    SweepEngine reference;
    auto expected = reference.run(s.configs, s.trace, s.dddg);

    // Interrupted run: stop cleanly after two fresh points.
    {
        ResultStore store;
        store.open(dir);
        SweepOptions options;
        options.store = &store;
        options.maxFreshPoints = 2;
        SweepEngine engine(std::move(options));
        engine.run(s.configs, s.trace, s.dddg);
        EXPECT_TRUE(engine.interrupted());
        EXPECT_EQ(engine.progress().done, 2u);
        EXPECT_EQ(store.stats().records, 2u);
    }

    // Resume: a new engine on the reopened store replays the two
    // finished points and simulates only the rest.
    ResultStore store;
    store.open(dir);
    SweepOptions options;
    options.store = &store;
    SweepEngine engine(std::move(options));
    auto resumed = engine.run(s.configs, s.trace, s.dddg);

    EXPECT_FALSE(engine.interrupted());
    EXPECT_EQ(engine.progress().cached, 2u);
    EXPECT_EQ(engine.storeHits(), 2u);
    EXPECT_EQ(engine.progress().done, s.configs.size() - 2);
    EXPECT_EQ(sweepJson(resumed), sweepJson(expected))
        << "resumed results must be byte-identical to an "
           "uninterrupted sweep";
    EXPECT_EQ(store.stats().records, s.configs.size())
        << "the resumed run stores the missing points";
    std::filesystem::remove_all(dir);
}

TEST(SweepEngine, ProgressCallbackCoversEveryPoint)
{
    const auto &s = space();
    std::size_t calls = 0;
    SweepProgress last;
    SweepOptions options;
    options.threads = 4;
    options.onProgress = [&](const SweepProgress &p) {
        ++calls;
        last = p;
    };
    SweepEngine engine(std::move(options));
    engine.run(s.configs, s.trace, s.dddg);
    EXPECT_EQ(calls, s.configs.size());
    EXPECT_EQ(last.done + last.cached, s.configs.size());
    EXPECT_GT(engine.simulatedEvents(), 0u);
    EXPECT_GT(engine.meps(), 0.0);
}

TEST(SweepEngine, ProgressSnapshotsAreMonotonicUnderContention)
{
    // Regression: reportProgress used to build its snapshot outside
    // progressMutex, so two workers finishing together could deliver
    // reordered snapshots and a callback would observe done/cached
    // counters going backwards. The snapshot is now taken under the
    // callback lock; every observed counter must be non-decreasing.
    const auto &s = space();
    // Prewarm a shared cache with half the space so cached and done
    // both move under contention (duplicates inside one run can race
    // past each other before either inserts, so prewarming is the
    // only way to guarantee hits).
    ResultCache cache;
    std::vector<SocConfig> half(s.configs.begin(),
                                s.configs.begin() + 3);
    {
        SweepOptions warmup;
        warmup.cache = &cache;
        SweepEngine prime(std::move(warmup));
        prime.run(half, s.trace, s.dddg);
    }
    std::vector<SocConfig> configs = s.configs;
    configs.insert(configs.end(), s.configs.begin(), s.configs.end());

    SweepProgress prev;
    std::size_t calls = 0;
    SweepOptions options;
    options.cache = &cache;
    options.threads = 4;
    options.onProgress = [&](const SweepProgress &p) {
        EXPECT_GE(p.done, prev.done)
            << "done went backwards across callbacks";
        EXPECT_GE(p.cached, prev.cached)
            << "cached went backwards across callbacks";
        EXPECT_GE(p.failed, prev.failed)
            << "failed went backwards across callbacks";
        EXPECT_LE(p.done + p.cached + p.failed, p.total);
        prev = p;
        ++calls;
    };
    SweepEngine engine(std::move(options));
    engine.run(configs, s.trace, s.dddg);
    EXPECT_EQ(calls, configs.size());
    EXPECT_EQ(prev.done + prev.cached, configs.size());
    EXPECT_GE(prev.cached, 2 * half.size())
        << "every occurrence of a prewarmed config must be a hit";
    EXPECT_GE(prev.done, s.configs.size() - half.size())
        << "the cold configs must still be simulated";
}

TEST(SweepEngine, CallbackMayReenterEngineOnFailurePath)
{
    // Regression: the failure path used to run the user callback
    // while still holding failureMutex, imposing a lock order that
    // deadlocked callbacks reaching back into the engine. The lock
    // is now scoped to the push_back; a callback that calls
    // progress() and failures() on every delivery — including
    // failure deliveries — must complete.
    const auto &s = space();
    std::vector<SocConfig> configs = s.configs;
    for (std::size_t at : {std::size_t{1}, std::size_t{4}}) {
        SocConfig bad = s.configs.front();
        bad.lanes = 0; // validateSocConfig: fatal
        configs.insert(configs.begin() + at, bad);
    }

    SweepOptions options;
    options.threads = 4;
    options.continueOnError = true;
    SweepEngine *eng = nullptr;
    std::size_t maxFailedSeen = 0;
    options.onProgress = [&](const SweepProgress &p) {
        SweepProgress again = eng->progress();
        EXPECT_GE(again.done + again.cached + again.failed,
                  p.done + p.cached + p.failed);
        (void)eng->failures(); // stale during the run, but safe
        maxFailedSeen = std::max(maxFailedSeen, p.failed);
    };
    SweepEngine engine(std::move(options));
    eng = &engine;
    auto points = engine.run(configs, s.trace, s.dddg);

    ASSERT_EQ(points.size(), configs.size());
    EXPECT_EQ(maxFailedSeen, 2u);
    ASSERT_EQ(engine.failures().size(), 2u);
    EXPECT_EQ(engine.failures()[0].index, 1u);
    EXPECT_EQ(engine.failures()[1].index, 4u)
        << "failures must come back sorted by point index";
}

TEST(SweepEngine, EveryPointFailingStillCountsAndSortsFailures)
{
    // Regression: the dealing loop used to fill the per-worker
    // deques without their locks and the owner read st.failures
    // without failureMutex after the join. All-failure sweeps at
    // threads=4 are the densest exercise of both paths.
    const auto &s = space();
    std::vector<SocConfig> configs = s.configs;
    for (auto &c : configs)
        c.lanes = 0; // every point fails validation

    SweepOptions options;
    options.threads = 4;
    options.continueOnError = true;
    SweepEngine engine(std::move(options));
    auto points = engine.run(configs, s.trace, s.dddg);

    ASSERT_EQ(points.size(), configs.size());
    ASSERT_EQ(engine.failures().size(), configs.size());
    EXPECT_EQ(engine.progress().failed, configs.size());
    EXPECT_EQ(engine.progress().done, 0u);
    for (std::size_t i = 0; i < engine.failures().size(); ++i) {
        EXPECT_EQ(engine.failures()[i].index, i);
        EXPECT_EQ(engine.failures()[i].config.lanes, 0u);
    }
}

TEST(SweepEngine, ConfigCostPrefersCacheAndNarrowDatapaths)
{
    SocConfig dma;
    dma.memType = MemInterface::ScratchpadDma;
    dma.lanes = 16;
    SocConfig cacheCfg = dma;
    cacheCfg.memType = MemInterface::Cache;
    EXPECT_GT(SweepEngine::configCost(cacheCfg),
              SweepEngine::configCost(dma))
        << "cache-mode points simulate more machinery";
    SocConfig narrow = dma;
    narrow.lanes = 1;
    EXPECT_GT(SweepEngine::configCost(narrow),
              SweepEngine::configCost(dma))
        << "fewer lanes mean more simulated compute cycles";
}

TEST(ResultCache, DefaultIsUnbounded)
{
    ResultCache cache;
    SocResults r;
    for (int i = 0; i < 1000; ++i)
        cache.insert(std::to_string(i), r);
    EXPECT_EQ(cache.size(), 1000u);
    SocResults out;
    EXPECT_TRUE(cache.lookup("0", out))
        << "the first entry is never evicted";
}

// ---------------------------------------------------------------------
// Trace digest: the workload half of every result key
// ---------------------------------------------------------------------

TEST(TraceDigest, EqualForTwoBuildsOfOneWorkload)
{
    EXPECT_EQ(traceDigest(makeWorkload("aes-aes")->build().trace),
              traceDigest(makeWorkload("aes-aes")->build().trace));
    EXPECT_NE(traceDigest(makeWorkload("aes-aes")->build().trace),
              traceDigest(makeWorkload("gemm-ncubed")->build().trace));
}

TEST(TraceDigest, EveryCoveredFieldChangesIt)
{
    const Trace base = makeWorkload("aes-aes")->build().trace;
    const std::uint64_t want = traceDigest(base);
    ASSERT_FALSE(base.arrays.empty());
    std::size_t mem = 0, dep = 0;
    while (!isMemoryOp(base.ops.at(mem).op))
        ++mem;
    while (base.ops.at(dep).deps.empty())
        ++dep;

    const ArrayInfo &a0 = base.arrays[0];
    using Edit = std::function<void(Trace &)>;
    const std::vector<std::pair<const char *, Edit>> edits = {
        {"array name", [](Trace &t) { t.arrays[0].name += "x"; }},
        {"array size", [](Trace &t) { t.arrays[0].sizeBytes += 4; }},
        {"word bytes", [](Trace &t) { t.arrays[0].wordBytes *= 2; }},
        {"input flag",
         [&](Trace &t) { t.arrays[0].isInput = !a0.isInput; }},
        {"output flag",
         [&](Trace &t) { t.arrays[0].isOutput = !a0.isOutput; }},
        {"private flag",
         [&](Trace &t) {
             t.arrays[0].privateScratch = !a0.privateScratch;
         }},
        {"iterations", [](Trace &t) { ++t.numIterations; }},
        {"opcode",
         [&](Trace &t) {
             t.ops[mem].op = t.ops[mem].op == Opcode::Load
                                 ? Opcode::Store
                                 : Opcode::Load;
         }},
        {"array id", [&](Trace &t) { t.ops[mem].arrayId += 1; }},
        {"access size", [&](Trace &t) { t.ops[mem].size += 1; }},
        {"op iteration", [&](Trace &t) { t.ops[mem].iteration += 1; }},
        {"op offset", [&](Trace &t) { t.ops[mem].offset += 4; }},
        {"one dep", [&](Trace &t) { t.ops[dep].deps.pop_back(); }},
        {"dep value", [&](Trace &t) { t.ops[dep].deps[0] += 1; }},
        {"op count", [](Trace &t) { t.ops.pop_back(); }},
    };
    for (auto &[what, edit] : edits) {
        Trace t = base;
        edit(t);
        EXPECT_NE(traceDigest(t), want) << what;
    }
}

TEST(TraceDigest, PinnedForStencil2d)
{
    // Every stored result is keyed on this digest: a format change
    // would silently cold-start every user store. Change the pin
    // only together with a store schema bump.
    EXPECT_EQ(fingerprintHex(traceDigest(
                  makeWorkload("stencil-stencil2d")->build().trace)),
              "1efcfa50848a55c4");
}

TEST(TraceDigest, PrefixesEveryResultKey)
{
    SocConfig c;
    EXPECT_EQ(resultKey(0x0123456789abcdefull, c),
              "trace=0123456789abcdef " + configCanonicalKey(c));
}

TEST(SpaceFilter, ParsesAxesAndRejectsGarbage)
{
    SpaceFilter f = SpaceFilter::parse(
        "lanes=1,4;partitions=2;cache_kb=2,16");
    EXPECT_EQ(f.lanes, (std::vector<unsigned>{1, 4}));
    EXPECT_EQ(f.partitions, (std::vector<unsigned>{2}));
    EXPECT_EQ(f.cacheKb, (std::vector<unsigned>{2, 16}));
    EXPECT_TRUE(f.cacheLine.empty());
    EXPECT_THROW(SpaceFilter::parse("bogus=1"), FatalError);
    EXPECT_THROW(SpaceFilter::parse("lanes=abc"), FatalError);
}

TEST(SpaceFilter, RejectsNumbersOutsideTheAxisRange)
{
    // Axis values are 32-bit: 2^32 + 1 must not wrap to 1, and -1
    // must not become 4294967295.
    for (const char *bad : {"lanes=4294967297", "lanes=-1", "lanes=5x",
                            "lanes=", "lanes=1,", "cache_kb=+2"}) {
        EXPECT_THROW(SpaceFilter::parse(bad), FatalError) << bad;
    }
    EXPECT_EQ(SpaceFilter::parse("lanes=4294967295").lanes,
              (std::vector<unsigned>{4294967295u}));
}

TEST(SpaceFilter, RejectsARepeatedAxis)
{
    // "lanes=1;lanes=4" used to keep only lanes=4 and sweep half the
    // points asked for. A repeat is an error naming the axis.
    for (const char *spec :
         {"lanes=1;lanes=4", "partitions=1;lanes=2;partitions=4",
          "mem_type=dma;mem_type=acp", "cache_kb=2;cache_kb=2"}) {
        try {
            SpaceFilter::parse(spec);
            ADD_FAILURE() << spec << " must be rejected";
        } catch (const FatalError &e) {
            const std::string s = spec;
            EXPECT_NE(std::string(e.what()).find(
                          "'" + s.substr(0, s.find('=')) + "'"),
                      std::string::npos)
                << e.what();
        }
    }
    EXPECT_EQ(SpaceFilter::parse("lanes=1,4;partitions=4").lanes,
              (std::vector<unsigned>{1, 4}));
}

TEST(SpaceFilter, CacheAxesOnlyConstrainCacheConfigs)
{
    SocConfig base;
    SpaceFilter f = SpaceFilter::parse(
        "lanes=1,4;cache_kb=2;cache_line=64;cache_ports=1;"
        "cache_assoc=4");
    auto dma = filterConfigs(DesignSpace::dma(base), f);
    // DMA configs carry no cache: only the lanes axis applies.
    EXPECT_EQ(dma.size(), 2u * DesignSpace::partitionValues().size());
    auto cached = filterConfigs(DesignSpace::cache(base), f);
    EXPECT_EQ(cached.size(), 2u);
    for (const auto &c : cached) {
        EXPECT_EQ(c.cache.sizeBytes, 2u * 1024u);
        EXPECT_EQ(c.cache.lineBytes, 64u);
        EXPECT_EQ(c.cache.ports, 1u);
        EXPECT_EQ(c.cache.assoc, 4u);
    }
}

TEST(SpaceFilter, MemTypeAxisSelectsInterfaceRegimes)
{
    // The iface space holds all three regimes under both completion
    // modes: per mode, the DMA and ACP lanes x partitions grids and
    // one cache design per lane count.
    SocConfig base;
    const auto space = DesignSpace::iface(base);
    const std::size_t grid = DesignSpace::laneValues().size() *
                             DesignSpace::partitionValues().size();
    const std::size_t perLane = DesignSpace::laneValues().size();

    auto acp = filterConfigs(space, SpaceFilter::parse("mem_type=acp"));
    EXPECT_EQ(acp.size(), 2 * grid);
    for (const auto &c : acp)
        EXPECT_TRUE(c.iface.anyAcp());

    auto noAcp =
        filterConfigs(space, SpaceFilter::parse("mem_type=dma,cache"));
    EXPECT_EQ(noAcp.size(), space.size() - acp.size());
    for (const auto &c : noAcp)
        EXPECT_FALSE(c.iface.anyAcp());

    auto cached =
        filterConfigs(space, SpaceFilter::parse("mem_type=cache"));
    EXPECT_EQ(cached.size(), 2 * perLane);
    for (const auto &c : cached)
        EXPECT_EQ(c.memType, MemInterface::Cache);

    EXPECT_THROW(SpaceFilter::parse("mem_type=dram"), FatalError);
    EXPECT_THROW(SpaceFilter::parse("mem_type=dma,"), FatalError);
}

TEST(SpaceFilter, CompletionAxisSelectsNotificationModes)
{
    SocConfig base;
    const auto space = DesignSpace::iface(base);
    auto spin = filterConfigs(space, SpaceFilter::parse("completion=spin"));
    auto intr =
        filterConfigs(space, SpaceFilter::parse("completion=interrupt"));
    EXPECT_EQ(spin.size(), space.size() / 2);
    EXPECT_EQ(intr.size(), space.size() / 2);
    for (const auto &c : spin)
        EXPECT_EQ(c.iface.completion, CompletionMode::Spin);
    for (const auto &c : intr)
        EXPECT_EQ(c.iface.completion, CompletionMode::Interrupt);

    // Axes combine: interrupt-completed ACP designs at one lane count.
    auto both = filterConfigs(
        space,
        SpaceFilter::parse("completion=interrupt;mem_type=acp;lanes=4"));
    EXPECT_EQ(both.size(), DesignSpace::partitionValues().size());
    EXPECT_EQ(filterConfigs(space, SpaceFilter::parse(
                                       "completion=spin,interrupt"))
                  .size(),
              space.size());
    EXPECT_THROW(SpaceFilter::parse("completion=poll"), FatalError);
    EXPECT_THROW(SpaceFilter::parse("completion"), FatalError);
}

TEST(SweepJob, EnumeratesEveryNamedSpace)
{
    SocConfig base;
    const auto dma = DesignSpace::dma(base);
    const auto cache = DesignSpace::cache(base);
    EXPECT_EQ(enumerateSpace("single", base).size(), 1u);
    EXPECT_EQ(enumerateSpace("isolated", base).size(),
              DesignSpace::isolated(base).size());
    EXPECT_EQ(enumerateSpace("dma", base).size(), dma.size());
    EXPECT_EQ(enumerateSpace("fig6", base).size(),
              DesignSpace::dmaOptions(base).size());
    EXPECT_EQ(enumerateSpace("dma-options", base).size(),
              DesignSpace::dmaOptions(base).size());
    EXPECT_EQ(enumerateSpace("cache", base).size(), cache.size());
    EXPECT_EQ(enumerateSpace("fig8", base).size(),
              dma.size() + cache.size());
    EXPECT_EQ(enumerateSpace("acp", base).size(),
              DesignSpace::acp(base).size());
    EXPECT_EQ(enumerateSpace("iface", base).size(),
              DesignSpace::iface(base).size());
    EXPECT_THROW(enumerateSpace("fig9", base), FatalError);
}

TEST(SweepJob, ConfigsApplyBaseOptionsAndFilter)
{
    // What genie_sweep does with "aes-aes bus=64 --space=dma
    // --filter=lanes=4": parse the base, enumerate around it, filter.
    auto configs = filterConfigs(
        enumerateSpace("dma", parseConfig({"bus=64"})),
        SpaceFilter::parse("lanes=4"));
    EXPECT_EQ(configs.size(), DesignSpace::partitionValues().size());
    for (const auto &c : configs) {
        EXPECT_EQ(c.lanes, 4u);
        EXPECT_EQ(c.busWidthBits, 64u);
    }
    EXPECT_TRUE(filterConfigs(enumerateSpace("dma", SocConfig{}),
                              SpaceFilter::parse("lanes=3"))
                    .empty())
        << "lanes=3 is on no axis of the DMA space";
}

} // namespace
} // namespace genie
