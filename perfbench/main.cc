/**
 * @file
 * perfbench: host time per simulated design point, end to end and by
 * layer, on two seeded workloads (see README.md beside this file).
 *
 *   perfbench --workload dse-dma --seed 1 --seconds 20 --trace 0
 *
 * --trace 0 measures the end-to-end metrics with every hook off;
 * --trace 1 runs the separate per-layer pass (benchmark spans, a
 * HostProfiler and a traced Soc on every point). Either way the last
 * stdout line is one JSON object: correct, attempted, failed, metrics.
 * The line before it lists the generated points and how each metric was
 * taken. --trace 1 also writes its spans to the scratch directory.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hh"
#include "core/fingerprint.hh"
#include "core/soc.hh"
#include "dse/result_cache.hh"
#include "dse/result_store.hh"
#include "dse/sweep_engine.hh"
#include "metrics/export.hh"
#include "metrics/profiler.hh"
#include "scope/report.hh"
#include "scope/span_dag.hh"
#include "sim/logging.hh"
#include "workloads/workload.hh"

namespace
{

using namespace genie;
using perfbench::Checks;
using perfbench::Point;
using perfbench::Reference;
using perfbench::ScopedSpan;
using perfbench::SpanRecorder;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Where the sweep stores and the span file go. */
    std::string scratch = ".";
    /** Results digest the default seed must reproduce ("" = none). */
    std::string expectDigest;
};

/** One kernel's trace and DDDG, shared by every point on it. */
struct Kernel
{
    WorkloadOutput out;
    std::unique_ptr<Dddg> dddg;
};

using Kernels = std::map<std::string, std::unique_ptr<Kernel>>;

/** Output metrics, in the order they are added. */
struct Metrics
{
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        entries.push_back({name, value, unit});
    }
};

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

/** Host seconds between two profilerNowNs() readings. */
double
secondsBetween(std::uint64_t startNs, std::uint64_t endNs)
{
    return static_cast<double>(endNs - startNs) / 1e9;
}

double
msBetween(std::uint64_t startNs, std::uint64_t endNs)
{
    return secondsBetween(startNs, endNs) * 1e3;
}

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

std::string
pointLabel(const Point &p)
{
    return p.kernel + " " + fingerprintHex(p.fingerprint) + " [" +
           p.config.describe() + "]";
}

/** Build one kernel's trace and DDDG under "build"/"Dddg" spans. */
std::unique_ptr<Kernel>
buildKernel(const std::string &name, SpanRecorder &rec)
{
    auto k = std::make_unique<Kernel>();
    WorkloadPtr w = makeWorkload(name);
    {
        ScopedSpan s(rec, "build");
        k->out = w->build();
    }
    {
        ScopedSpan s(rec, "Dddg");
        k->dddg = std::make_unique<Dddg>(k->out.trace);
    }
    return k;
}

/** A fresh, empty directory under the scratch root. */
std::string
freshDir(const Options &opt, const std::string &tag)
{
    static int serial = 0;
    std::filesystem::path dir =
        std::filesystem::path(opt.scratch) /
        ("perfbench-" + tag + "-" + std::to_string(getpid()) + "-" +
         std::to_string(serial++));
    std::filesystem::remove_all(dir);
    return dir.string();
}

/**
 * One ResultStore per kernel. Store and cache keys are the config
 * alone, not the trace, so kernels must not share either: the same
 * config on another kernel would be served the first kernel's results.
 */
using Stores = std::map<std::string, std::unique_ptr<ResultStore>>;

Stores
openStores(const std::string &dir, const Kernels &kernels,
           SpanRecorder &rec)
{
    Stores stores;
    for (const auto &[name, k] : kernels) {
        auto store = std::make_unique<ResultStore>();
        {
            ScopedSpan s(rec, "ResultStore::open");
            store->open(dir + "/" + name);
        }
        stores[name] = std::move(store);
    }
    return stores;
}

/** Run one point bare (no profiler, no tracer) and time it. */
SocResults
runBare(const Point &p, const Kernel &k, double &ms)
{
    std::uint64_t t0 = profilerNowNs();
    SocResults r;
    {
        Soc soc(p.config, k.out.trace, *k.dddg);
        r = soc.run();
    }
    ms = msBetween(t0, profilerNowNs());
    return r;
}

/**
 * Everything before the first timed point: trace build and DDDG for
 * each kernel of the workload. setup_s is the median round. A round
 * takes 10-20 ms, short enough for load from other processes to swing
 * it by a third, so the timed loops run more rounds between passes and
 * the median samples the whole run.
 */
struct Setup
{
    const Options &opt;
    SpanRecorder &rec;
    Kernels kernels;
    std::vector<double> roundSeconds;

    /** Rebuild everything, at least @p minRounds times and for at least
     * @p minSeconds. The last round's kernels are kept. */
    void
    rounds(int minRounds, double minSeconds)
    {
        const std::uint64_t start = profilerNowNs();
        for (int r = 0; r < minRounds ||
                        secondsBetween(start, profilerNowNs()) <
                            minSeconds;
             ++r) {
            // Free the previous round first: building next to a live
            // copy fragments the heap and slows every later round.
            kernels.clear();
            ScopedSpan round(rec, "setup");
            std::uint64_t t0 = profilerNowNs();
            for (const std::string &name :
                 perfbench::workloadKernels(opt.workload))
                kernels[name] = buildKernel(name, rec);
            roundSeconds.push_back(
                secondsBetween(t0, profilerNowNs()));
        }
    }

    /** Between two timed passes. */
    void between() { rounds(2, 0.2); }

    double seconds() const { return perfbench::median(roundSeconds); }
};

/** Check each kernel's trace-building checksum against reference(). */
void
checkKernels(const Setup &setup, Checks &checks)
{
    for (const auto &[name, k] : setup.kernels) {
        double ref = makeWorkload(name)->reference();
        double tol = std::abs(ref) * 1e-9 + 1e-9;
        checks.run(std::abs(k->out.checksum - ref) <= tol,
                   name + " checksum differs from reference()");
    }
}

/** Digest of every point's results, in list order. */
std::string
digestOf(const std::vector<Point> &points, const Reference &ref)
{
    std::string all;
    for (std::size_t i = 0; i < points.size(); ++i) {
        all += points[i].kernel + " " + fingerprintHex(points[i].fingerprint) +
               " " + ref.text(i) + "\n";
    }
    return format("%08x", crc32Ieee(all.data(), all.size()));
}

/** Results and trace size of one traced point. */
struct Explained
{
    SocResults results;
    std::size_t spans = 0;
};

/**
 * genie_run --report on one point: a traced Soc with @p categories,
 * critical-path blame, the markdown report and the stats export.
 */
Explained
explainPoint(const Point &p, const Kernel &k, TraceCategoryMask categories,
             SpanRecorder &rec, std::uint64_t pid)
{
    SocConfig cfg = p.config;
    cfg.tracing.enabled = true;
    cfg.tracing.categories = categories;
    std::unique_ptr<Soc> soc;
    {
        ScopedSpan s(rec, "Soc", pid);
        soc = std::make_unique<Soc>(cfg, k.out.trace, *k.dddg);
    }
    Explained e;
    {
        ScopedSpan s(rec, "run", pid);
        e.results = soc->run();
    }
    e.spans = soc->tracer()->numEvents();
    // blameRun() is buildSpanDag() plus blame(); the report also needs
    // the dag for its segments table, so both halves are called here,
    // as genie_run --report does.
    std::unique_ptr<SpanDag> dag;
    BlameReport blamed;
    {
        ScopedSpan s(rec, "blameRun", pid);
        dag = std::make_unique<SpanDag>(buildSpanDag(*soc->tracer()));
        blamed = blame(*dag);
    }
    {
        ScopedSpan s(rec, "renderRunReport", pid);
        RunReportInput in;
        in.title = p.kernel;
        in.configLine = cfg.describe();
        in.results = &e.results;
        in.blame = &blamed;
        in.dag = dag.get();
        renderRunReport(in);
    }
    {
        ScopedSpan s(rec, "writeStatsJson", pid);
        std::ostringstream stats;
        writeStatsJson(stats, soc->statRegistry());
    }
    return e;
}

/**
 * The quiet value of a point's host times over passes: their minimum.
 * Load from other tenants of a shared host only ever adds time, in
 * bursts of seconds to over a minute, so a point's time is the time of
 * its calmest pass. A lower quartile or a median moves whenever a burst
 * covers a quarter or half of the passes; the minimum moves only when
 * every pass is slowed. The program is deterministic, so no pass runs
 * faster than the work it does.
 */
double
quietTime(const std::vector<double> &samples)
{
    return *std::min_element(samples.begin(), samples.end());
}

/** The end-to-end metrics every workload reports. */
struct EndToEnd
{
    double pointsPerS = 0.0;
    perfbench::Tail tail;
    double p50 = 0.0;
};

void
addEndToEnd(Metrics &m, const Setup &setup, const EndToEnd &e)
{
    m.add("setup_s", setup.seconds(), "s");
    m.add("points_per_s", e.pointsPerS, "1/s");
    m.add("point_ms_p50", e.p50, "ms");
    m.add("point_ms_tail", e.tail.value, "ms");
    m.add("peak_rss_mb", peakRssMb(), "MB");
}

/**
 * The untraced measurement: whole passes over the point list until the
 * time is up, and at least two. Each point runs bare, one Soc at a time,
 * on the kernels built in set-up. A point's host time is its quiet time
 * over passes; the rate is the list size over the sum of those times.
 */
EndToEnd
timedPasses(const Options &opt, const std::vector<Point> &points,
            Setup &setup, Checks &checks, Reference &ref)
{
    std::vector<std::vector<double>> perPoint(points.size());
    std::uint64_t t0 = profilerNowNs();
    for (int passes = 0;
         passes < 2 ||
         secondsBetween(t0, profilerNowNs()) < opt.seconds;
         ++passes) {
        if (passes > 0)
            setup.between();
        for (std::size_t i = 0; i < points.size(); ++i) {
            const Point &p = points[i];
            double ms = 0.0;
            bool ok = true;
            std::string why;
            try {
                SocResults r = runBare(p, *setup.kernels.at(p.kernel), ms);
                if (r.stalled) {
                    ok = false;
                    why = "stalled";
                } else if (!ref.matches(i, perfbench::resultsText(r))) {
                    ok = false;
                    why = "results differ between passes";
                }
            } catch (const std::exception &e) {
                ok = false;
                why = e.what();
            }
            checks.point(ok, pointLabel(p) + ": " + why);
            perPoint[i].push_back(ms);
        }
    }

    std::vector<double> pointMs;
    for (const auto &samples : perPoint)
        pointMs.push_back(quietTime(samples));
    EndToEnd e;
    e.pointsPerS = static_cast<double>(points.size()) * 1e3 / sum(pointMs);
    e.p50 = perfbench::median(pointMs);
    e.tail = perfbench::tailOf(pointMs);
    return e;
}

/** The configs of @p points on @p kernel, in list order. */
std::vector<SocConfig>
configsOn(const std::vector<Point> &points, const std::string &kernel,
          std::vector<std::size_t> &index)
{
    std::vector<SocConfig> configs;
    index.clear();
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (points[i].kernel == kernel) {
            configs.push_back(points[i].config);
            index.push_back(i);
        }
    }
    return configs;
}

/** One SweepEngine pass over every point. */
struct SweepPass
{
    double ms = 0.0;
    std::size_t fresh = 0;  ///< simulated
    std::size_t cached = 0; ///< served by the cache or the store
    std::uint64_t storeHits = 0;
    std::uint64_t handlerNs = 0;
    unsigned workers = 0;
    std::vector<std::string> texts; ///< results, in point-list order
};

unsigned
sweepThreads()
{
    return std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
}

SweepPass
sweepPass(const std::vector<Point> &points, const Setup &setup,
          Stores &stores, SpanRecorder &rec, Checks &checks)
{
    SweepPass pass;
    pass.workers = sweepThreads();
    pass.texts.resize(points.size());
    std::uint64_t t0 = profilerNowNs();
    for (const auto &[name, k] : setup.kernels) {
        ResultCache cache;
        SweepOptions so;
        so.threads = pass.workers;
        so.cache = &cache;
        so.store = stores.at(name).get();
        so.continueOnError = true;
        SweepEngine engine(std::move(so));
        std::vector<std::size_t> index;
        std::vector<SocConfig> configs = configsOn(points, name, index);
        std::vector<DesignPoint> done;
        {
            ScopedSpan s(rec, "SweepEngine::run");
            done = engine.run(configs, k->out.trace, *k->dddg);
        }
        SweepProgress prog = engine.progress();
        pass.fresh += prog.done;
        pass.cached += prog.cached;
        pass.storeHits += engine.storeHits();
        pass.handlerNs += engine.hostWallNs();
        for (const FailedPoint &f : engine.failures())
            checks.run(false, name + ": " + f.message);
        for (std::size_t j = 0; j < done.size(); ++j)
            pass.texts[index[j]] = perfbench::resultsText(done[j].results);
    }
    pass.ms = msBetween(t0, profilerNowNs());
    return pass;
}

/** Cold and warm SweepEngine passes through fresh stores. */
struct StoreCycle
{
    SweepPass cold, warm;
    double reopenMs = 0.0;
    std::uint64_t inserts = 0;
};

StoreCycle
storeCycle(const Options &opt, const std::vector<Point> &points,
           const Setup &setup, SpanRecorder &rec, Checks &checks)
{
    StoreCycle c;
    std::string dir = freshDir(opt, "store");
    {
        Stores stores = openStores(dir, setup.kernels, rec);
        c.cold = sweepPass(points, setup, stores, rec, checks);
        for (const auto &[name, store] : stores)
            c.inserts += store->stats().inserts;
    }
    {
        // New engines, caches and store objects, as a new process would
        // see the directories: every point must come from disk.
        std::uint64_t t0 = profilerNowNs();
        Stores stores = openStores(dir, setup.kernels, rec);
        c.reopenMs = msBetween(t0, profilerNowNs());
        c.warm = sweepPass(points, setup, stores, rec, checks);
        c.warm.ms += c.reopenMs;
    }
    std::filesystem::remove_all(dir);
    return c;
}

/** Check a store cycle point by point against @p ref. */
void
checkCycle(const std::vector<Point> &points, const StoreCycle &c,
           Reference &ref, Checks &checks)
{
    for (std::size_t i = 0; i < points.size(); ++i) {
        std::string why;
        if (c.cold.texts[i].empty())
            why = "missing from the cold pass";
        else if (c.warm.texts[i] != c.cold.texts[i])
            why = "warm pass differs from cold pass";
        else if (!ref.matches(i, c.cold.texts[i]))
            why = "differs from the serial Soc run or an earlier cycle";
        checks.point(why.empty(), pointLabel(points[i]) + ": " + why);
    }
    checks.run(c.warm.fresh == 0 && c.warm.storeHits == points.size(),
               "warm pass simulated points instead of reading the store");
}

/**
 * Construct and run @p p inside "Soc" and "run" spans, with @p profiler
 * attached when it is not null. Adds the run's host seconds to @p runS.
 */
std::string
spannedRun(const Point &p, const Kernel &k, HostProfiler *profiler,
           SpanRecorder &rec, std::uint64_t pid, double &runS)
{
    std::unique_ptr<Soc> soc;
    {
        ScopedSpan s(rec, "Soc", pid);
        soc = std::make_unique<Soc>(p.config, k.out.trace, *k.dddg);
        if (profiler)
            soc->eventQueue().setProfiler(profiler);
    }
    std::uint64_t r0 = profilerNowNs();
    SocResults r;
    {
        ScopedSpan s(rec, "run", pid);
        r = soc->run();
    }
    runS += secondsBetween(r0, profilerNowNs());
    return perfbench::resultsText(r);
}

/** Per-module host time and events, summed over profiled runs. */
struct ModuleTotals
{
    double hostMs = 0.0;
    std::uint64_t events = 0;
};

/** The separate traced pass: per-layer metrics for every workload. */
void
perLayerPass(const Options &opt, const std::vector<Point> &points,
             Setup &setup, SpanRecorder &rec, Checks &checks, Metrics &m)
{
    // Scratchpad conflict instants dominate traces of points with more
    // lanes than partitions (9.2 M spans and 0.57 GB for stencil2d at 16
    // lanes, 1 partition), so the traced runs mask that one category.
    const TraceCategoryMask categories =
        allTraceCategories & ~traceCategoryBit(TraceCategory::Spad);

    HostProfiler profiler;
    Reference bareRef(points.size());
    double bareNoSpanMs = 0.0, bareRunS = 0.0, profiledRunS = 0.0;
    double nodes = 0.0, spans = 0.0;
    std::size_t profiled = 0;
    std::uint64_t t0 = profilerNowNs();
    for (int passes = 0;
         passes < 1 ||
         secondsBetween(t0, profilerNowNs()) < opt.seconds;
         ++passes) {
        if (passes > 0)
            setup.between();
        ScopedSpan passSpan(rec, "pass");
        for (std::size_t i = 0; i < points.size(); ++i) {
            const Point &p = points[i];
            const std::uint64_t pid = i + 1;
            bool ok = true;
            std::string why;
            try {
                ScopedSpan pointSpan(rec, "point", pid);
                const Kernel &k = *setup.kernels.at(p.kernel);

                double ms = 0.0;
                SocResults bare = runBare(p, k, ms);
                bareNoSpanMs += ms;
                if (bare.stalled)
                    throw std::runtime_error("stalled");
                std::string want = perfbench::resultsText(bare);
                if (!bareRef.matches(i, want))
                    throw std::runtime_error("results differ between passes");

                std::vector<std::string> got;
                {
                    ScopedSpan s(rec, "bare", pid);
                    got.push_back(
                        spannedRun(p, k, nullptr, rec, pid, bareRunS));
                    nodes += static_cast<double>(k.dddg->numNodes());
                }
                {
                    ScopedSpan s(rec, "profiled", pid);
                    got.push_back(
                        spannedRun(p, k, &profiler, rec, pid, profiledRunS));
                    ++profiled;
                }
                {
                    ScopedSpan s(rec, "traced", pid);
                    Explained e = explainPoint(p, k, categories, rec, pid);
                    got.push_back(perfbench::resultsText(e.results));
                    spans += static_cast<double>(e.spans);
                }
                for (const std::string &g : got)
                    ok = ok && g == want;
                why = "bare, profiled and traced results differ";
            } catch (const std::exception &e) {
                ok = false;
                why = e.what();
            }
            checks.point(ok, pointLabel(p) + ": " + why);
        }
    }

    const double n = static_cast<double>(profiled);
    auto perPoint = [n](double total) { return n > 0 ? total / n : 0.0; };

    // Set-up layers: per round, summed over the workload's kernels.
    m.add("workloads.build_ms",
          sum(rec.durations("build", "setup")) /
              static_cast<double>(setup.roundSeconds.size()),
          "ms");
    m.add("accel.dddg_ms",
          sum(rec.durations("Dddg", "setup")) /
              static_cast<double>(setup.roundSeconds.size()),
          "ms");
    m.add("core.construct_ms_p50",
          perfbench::median(rec.durations("Soc", "bare")), "ms");
    m.add("core.run_ms_p50", perfbench::median(rec.durations("run", "bare")),
          "ms");

    std::map<std::string, ModuleTotals> modules;
    for (const std::string &mod : perfbench::moduleNames())
        modules[mod] = {};
    for (const auto &[kind, prof] : profiler.byKind()) {
        std::string mod = perfbench::moduleOfKind(kind);
        checks.run(!mod.empty(), "event kind '" + kind + "' has no module");
        modules[mod].hostMs += static_cast<double>(prof.wallNs) / 1e6;
        modules[mod].events += prof.events;
    }
    // Host time per point for the modules every workload runs, and
    // every module's share of in-handler time. A module a workload never
    // runs (the cache on the DMA space, DMA on the cache space) has no
    // time to report, and a constant zero time is not a measurement.
    const double handlerMs = static_cast<double>(profiler.totalWallNs()) / 1e6;
    for (const char *mod : {"accel", "mem.bus", "mem.dram", "cpu"})
        m.add(std::string(mod) + ".host_ms", perPoint(modules[mod].hostMs),
              "ms");
    for (const std::string &mod : perfbench::moduleNames()) {
        // No generated config arms the watchdog, faults or the sampler,
        // so the sim module never runs a handler here.
        if (mod == "sim")
            continue;
        m.add(mod + ".host_share",
              handlerMs > 0 ? modules[mod].hostMs / handlerMs * 100 : 0.0,
              "%");
    }
    for (const char *mod : {"accel", "mem.bus", "mem.cache", "mem.dram",
                            "mem.tlb"})
        m.add(std::string(mod) + ".events",
              perPoint(static_cast<double>(modules[mod].events)), "count");
    auto tick = profiler.byKind().find("accel.tick");
    m.add("accel.tick_us_p95",
          tick == profiler.byKind().end()
              ? 0.0
              : tick->second.latencyNs.p95() / 1e3,
          "us");
    m.add("accel.ops_per_s", bareRunS > 0 ? nodes / bareRunS : 0.0, "1/s");

    m.add("sim.events_per_point",
          perPoint(static_cast<double>(profiler.totalEvents())), "count");
    m.add("sim.host_ns_per_event",
          profiler.totalEvents() > 0
              ? static_cast<double>(profiler.totalWallNs()) /
                    static_cast<double>(profiler.totalEvents())
              : 0.0,
          "ns");
    m.add("sim.outside_handler_ms", perPoint(profiledRunS * 1e3 - handlerMs),
          "ms");

    const double tracedRun = sum(rec.durations("run", "traced"));
    const double bareRun = sum(rec.durations("run", "bare"));
    m.add("trace.traced_run_ms_p50",
          perfbench::median(rec.durations("run", "traced")), "ms");
    m.add("trace.spans_per_point", perPoint(spans), "count");
    m.add("trace.overhead_x", bareRun > 0 ? tracedRun / bareRun : 0.0, "x");
    m.add("scope.blame_ms_p50", perfbench::median(rec.durations("blameRun")),
          "ms");
    m.add("scope.render_ms_p50",
          perfbench::median(rec.durations("renderRunReport")), "ms");
    m.add("metrics.export_ms_p50",
          perfbench::median(rec.durations("writeStatsJson")), "ms");

    // The benchmark's own tracing cost: the same bare run with and
    // without its spans.
    const double bareSpanMs = sum(rec.durations("bare"));
    m.add("bench.span_overhead_pct",
          bareNoSpanMs > 0 ? (bareSpanMs - bareNoSpanMs) / bareNoSpanMs * 100
                           : 0.0,
          "%");

    // The dse layer on this workload's points: one cold and one warm
    // SweepEngine pass through a fresh store.
    StoreCycle c;
    {
        ScopedSpan s(rec, "dse");
        c = storeCycle(opt, points, setup, rec, checks);
    }
    checkCycle(points, c, bareRef, checks);
    m.add("dse.cold_pass_ms", c.cold.ms, "ms");
    m.add("dse.warm_pass_ms", c.warm.ms, "ms");
    m.add("dse.worker_occupancy",
          c.cold.ms > 0 ? static_cast<double>(c.cold.handlerNs) / 1e6 /
                              (c.cold.ms * c.cold.workers)
                        : 0.0,
          "ratio");
    const double warmTotal = static_cast<double>(c.warm.fresh + c.warm.cached);
    m.add("dse.cache_hit_ratio",
          warmTotal > 0 ? static_cast<double>(c.warm.cached) / warmTotal : 0.0,
          "ratio");
    m.add("dse.store_hits", static_cast<double>(c.warm.storeHits), "count");
    m.add("dse.store_inserts", static_cast<double>(c.inserts), "count");
    m.add("dse.store_open_ms", c.reopenMs, "ms");
}

void
printNumber(std::ostream &os, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    os << buf;
}

/** The line before the result: what was measured, for comparing runs. */
void
printDetail(const Options &opt, const std::vector<Point> &points,
            const std::string &digest, const perfbench::Tail &tail)
{
    std::ostringstream os;
    os << "{\"perfbench\": {\"workload\": \"" << opt.workload
       << "\", \"seed\": " << opt.seed << ", \"trace\": "
       << (opt.trace ? 1 : 0) << ", \"digest\": \"" << digest << "\"";
    if (!opt.trace) {
        os << ", \"point_ms_tail\": {\"percentile\": " << tail.percentile
           << ", \"samples\": " << tail.samples << "}";
    }
    os << ", \"points\": [";
    for (std::size_t i = 0; i < points.size(); ++i) {
        os << (i ? ", " : "") << "[\"" << points[i].kernel << "\", \""
           << fingerprintHex(points[i].fingerprint) << "\"]";
    }
    os << "]}}\n";
    std::fputs(os.str().c_str(), stdout);
}

void
printResult(const Checks &checks, const Metrics &m)
{
    std::ostringstream os;
    os << "{\"correct\": "
       << (checks.passed() ? "true" : "false")
       << ", \"attempted\": " << checks.attempted
       << ", \"failed\": " << checks.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < m.entries.size(); ++i) {
        const auto &e = m.entries[i];
        os << (i ? ", " : "") << "\"" << e.name << "\": {\"value\": ";
        printNumber(os, e.value);
        os << ", \"unit\": \"" << e.unit << "\"}";
    }
    os << "}}\n";
    std::fputs(os.str().c_str(), stdout);
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--scratch DIR] [--expect-digest HEX]\n"
                 "workloads: dse-dma dse-cache\n");
    return 2;
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string key = argv[i], val = argv[i + 1];
        if (key == "--workload")
            opt.workload = val;
        else if (key == "--seed")
            opt.seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (key == "--seconds")
            opt.seconds = std::strtod(val.c_str(), nullptr);
        else if (key == "--trace")
            opt.trace = val == "1";
        else if (key == "--scratch")
            opt.scratch = val;
        else if (key == "--expect-digest")
            opt.expectDigest = val;
        else
            return false;
    }
    const auto &names = perfbench::workloadNames();
    return argc % 2 == 1 && opt.seconds > 0 &&
           std::find(names.begin(), names.end(), opt.workload) != names.end();
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt))
        return usage();
    try {
        SpanRecorder rec(opt.trace);
        Checks checks;
        Metrics m;
        const std::vector<Point> points =
            perfbench::generatePoints(opt.workload, opt.seed);
        Setup setup{opt, rec, {}, {}};
        setup.rounds(3, 0.3);
        checkKernels(setup, checks);

        Reference ref(points.size());
        EndToEnd e;
        if (opt.trace)
            perLayerPass(opt, points, setup, rec, checks, m);
        else
            e = timedPasses(opt, points, setup, checks, ref);

        std::string digest;
        if (!opt.trace) {
            digest = digestOf(points, ref);
            addEndToEnd(m, setup, e);
            if (!opt.expectDigest.empty())
                checks.run(digest == opt.expectDigest,
                           "results digest " + digest + " != expected " +
                               opt.expectDigest);
        } else {
            std::filesystem::path out =
                std::filesystem::path(opt.scratch) /
                ("perfbench-spans-" + opt.workload + ".json");
            std::ofstream os(out);
            rec.writeJson(os);
            if (!os)
                fatal("cannot write %s", out.string().c_str());
        }
        printDetail(opt, points, digest, e.tail);
        printResult(checks, m);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
