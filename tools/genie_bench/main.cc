/**
 * @file
 * genie_bench: the self-profiling benchmark harness.
 *
 * Runs a fixed set of figure-style benchmark scenarios (workload +
 * design point), times each one on the host, counts simulated events
 * via the queue's retired-event counter (the timed run carries no
 * profiler or tracer), and writes BENCH_genie.json:
 *
 *   genie_bench --quick                 # CI subset (3 scenarios)
 *   genie_bench --out=BENCH_genie.json  # full set
 *   genie_bench --quick --baseline=bench/BENCH_baseline.json \
 *               --max-regress=20        # fail if wall time grows >20%
 *
 * The JSON (schema "genie-bench-1") records, per scenario: wall-clock
 * milliseconds, events executed, MEPS (millions of simulated events
 * retired per host second), and the headline simulation metrics
 * (latency, accelerator cycles, energy, EDP, bus utilization). The
 * totals block carries the aggregate wall time that the CI regression
 * gate tracks against the checked-in baseline. MEPS is reported but not
 * gated: events differ widely in cost, and batching them changes the
 * count without changing the work.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/config_parse.hh"
#include "core/soc.hh"
#include "dse/sweep.hh"
#include "dse/sweep_engine.hh"
#include "metrics/export.hh"
#include "scope/report.hh"
#include "scope/span_dag.hh"
#include "workloads/workload.hh"

namespace
{

using namespace genie;

struct Scenario
{
    const char *name;     ///< stable key in BENCH_genie.json
    const char *workload; ///< workload registry name
    const char *options;  ///< space-separated key=value config
    bool quick;           ///< part of the --quick CI subset
};

// The paper's evaluation axes: DMA baseline, the optimized DMA flow
// (Figure 6), and the cache interface (Figure 7), plus a wider spread
// of kernels for the full run.
const Scenario scenarios[] = {
    {"stencil2d-dma-opt", "stencil-stencil2d",
     "mem=dma lanes=8 partitions=8 pipelined=1 triggered=1", true},
    {"gemm-dma-baseline", "gemm-ncubed",
     "mem=dma lanes=4 partitions=4", true},
    {"md-knn-cache", "md-knn",
     "mem=cache lanes=4 cache_kb=16 cache_ports=2", true},
    {"stencil3d-dma-opt", "stencil-stencil3d",
     "mem=dma lanes=8 partitions=8 pipelined=1 triggered=1", false},
    {"spmv-crs-cache", "spmv-crs",
     "mem=cache lanes=4 cache_kb=32 cache_ports=2", false},
    {"fft-dma-pipelined", "fft-transpose",
     "mem=dma lanes=8 partitions=8 pipelined=1", false},
};

/** Critical-path attribution of the scenario (from a separate traced
 * run, so the timed run stays tracer-free). All simulated-time
 * quantities: deterministic across machines. */
struct BenchBlame
{
    std::string topCategory;  ///< largest on-path category ("-" none)
    double topShare = 0.0;    ///< its share of covered ticks
    double coverage = 0.0;    ///< covered / end tick
};

struct BenchResult
{
    const Scenario *scenario = nullptr;
    double wallMs = 0.0;
    std::uint64_t events = 0;
    double meps = 0.0;
    SocResults sim;
    BenchBlame blame;
};

std::vector<std::string>
splitOptions(const char *options)
{
    std::vector<std::string> out;
    std::istringstream iss(options);
    std::string tok;
    while (iss >> tok)
        out.push_back(tok);
    return out;
}

BenchResult
runScenario(const Scenario &s)
{
    auto workload = makeWorkload(s.workload);
    auto out = workload->build();
    Dddg dddg(out.trace);
    SocConfig config = parseConfig(splitOptions(s.options));

    // The timed run is bare: no profiler, no tracer. The queue's own
    // retired-event counter supplies the event count, so the MEPS
    // number measures the kernel itself, not the observability hooks.
    Soc soc(config, out.trace, dddg);

    auto t0 = std::chrono::steady_clock::now();
    SocResults results = soc.run();
    auto t1 = std::chrono::steady_clock::now();

    BenchResult r;
    r.scenario = &s;
    r.wallMs = std::chrono::duration<double, std::milli>(t1 - t0)
                   .count();
    r.events = soc.eventQueue().numExecuted();
    r.meps = r.wallMs > 0
                 ? static_cast<double>(r.events) / (r.wallMs * 1e3)
                 : 0.0;
    r.sim = results;

    // Blame from a second, traced run: attaching the tracer to the
    // timed run would tax the MEPS numbers the harness exists to
    // track. Genie-Trace passivity keeps both runs byte-identical in
    // simulated results.
    SocConfig tracedConfig = config;
    tracedConfig.tracing.enabled = true;
    tracedConfig.tracing.categories = allTraceCategories;
    Soc tracedSoc(tracedConfig, out.trace, dddg);
    tracedSoc.run();
    BlameReport b = blameRun(*tracedSoc.tracer());
    r.blame.topCategory = topBlameCategory(b);
    r.blame.coverage = b.coverage;
    Tick topTicks = 0;
    for (const auto &e : b.byCategory)
        topTicks = std::max(topTicks, e.onPathTicks);
    r.blame.topShare =
        b.coveredTicks > 0 ? static_cast<double>(topTicks) /
                                 static_cast<double>(b.coveredTicks)
                           : 0.0;
    return r;
}

/** SweepEngine throughput on a reduced Fig. 6 + Fig. 8 DMA space.
 * The two spaces overlap in their all-optimizations points, so the
 * result cache dedupes part of the second sweep — cached > 0 proves
 * the memoization path is live in the measured configuration. */
struct SweepBench
{
    std::size_t points = 0;    ///< design points swept (both spaces)
    std::size_t simulated = 0; ///< fresh simulations
    std::size_t cached = 0;    ///< served from the result cache
    double wallMs = 0.0;
    std::uint64_t events = 0;
    double meps = 0.0;
};

SweepBench
runSweepBench()
{
    auto workload = makeWorkload("stencil-stencil2d")->build();
    Dddg dddg(workload.trace);
    SpaceFilter filter =
        SpaceFilter::parse("lanes=1,4;partitions=1,4");
    SocConfig base;
    auto fig6 = filterConfigs(DesignSpace::dmaOptions(base), filter);
    auto fig8dma = filterConfigs(DesignSpace::dma(base), filter);

    ResultCache cache;
    SweepOptions options;
    options.cache = &cache;
    SweepEngine engine(std::move(options));

    SweepBench b;
    auto t0 = std::chrono::steady_clock::now();
    engine.run(fig6, workload.trace, dddg);
    b.simulated += engine.progress().done;
    b.events += engine.simulatedEvents();
    engine.run(fig8dma, workload.trace, dddg);
    auto t1 = std::chrono::steady_clock::now();
    b.simulated += engine.progress().done;
    b.events += engine.simulatedEvents();
    b.points = fig6.size() + fig8dma.size();
    b.cached = cache.hits();
    b.wallMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    b.meps = b.wallMs > 0 ? static_cast<double>(b.events) /
                                (b.wallMs * 1e3)
                          : 0.0;
    return b;
}

std::string
benchJson(const std::vector<BenchResult> &results,
          const SweepBench &sweep, bool quick)
{
    std::string j = "{\n  \"schema\": \"genie-bench-1\",\n";
    j += format("  \"quick\": %s,\n", quick ? "true" : "false");
    j += "  \"benches\": [\n";
    double totalWallMs = 0.0;
    std::uint64_t totalEvents = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const BenchResult &r = results[i];
        totalWallMs += r.wallMs;
        totalEvents += r.events;
        j += "    {";
        j += format("\"name\": \"%s\", ", r.scenario->name);
        j += format("\"workload\": \"%s\", ", r.scenario->workload);
        j += format("\"config\": \"%s\",\n      ",
                    r.scenario->options);
        j += format("\"wall_ms\": %.3f, ", r.wallMs);
        j += format("\"events\": %llu, ",
                    (unsigned long long)r.events);
        j += format("\"meps\": %.3f,\n      ", r.meps);
        j += "\"sim\": {";
        j += format("\"total_us\": %.3f, ", r.sim.totalUs());
        j += format("\"accel_cycles\": %llu, ",
                    (unsigned long long)r.sim.accelCycles);
        j += format("\"energy_pj\": %.1f, ", r.sim.energyPj);
        j += format("\"edp\": %s, ",
                    formatStatNumber(r.sim.edp).c_str());
        j += format("\"bus_utilization\": %.4f, ",
                    r.sim.busUtilization);
        j += format("\"dma_bytes\": %llu, ",
                    (unsigned long long)r.sim.dmaBytes);
        j += format("\"cache_miss_rate\": %.4f", r.sim.cacheMissRate);
        j += "},\n      ";
        j += format("\"blame\": {\"top_category\": \"%s\", "
                    "\"top_share\": %.4f, \"coverage\": %.4f}}",
                    r.blame.topCategory.c_str(), r.blame.topShare,
                    r.blame.coverage);
        j += i + 1 < results.size() ? ",\n" : "\n";
    }
    j += "  ],\n";
    j += format("  \"sweep\": {\"workload\": \"stencil-stencil2d\", "
                "\"points\": %zu, \"simulated\": %zu, "
                "\"cached\": %zu,\n    \"wall_ms\": %.3f, "
                "\"events\": %llu, \"meps\": %.3f},\n",
                sweep.points, sweep.simulated, sweep.cached,
                sweep.wallMs, (unsigned long long)sweep.events,
                sweep.meps);
    double totalMeps =
        totalWallMs > 0
            ? static_cast<double>(totalEvents) / (totalWallMs * 1e3)
            : 0.0;
    j += format("  \"totals\": {\"wall_ms\": %.3f, \"events\": %llu, "
                "\"meps\": %.3f}\n",
                totalWallMs, (unsigned long long)totalEvents,
                totalMeps);
    j += "}\n";
    return j;
}

/** Extract the totals-block wall_ms from a BENCH_genie.json file.
 * Returns a negative value when the file or field is missing. */
double
totalWallMs(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return -1.0;
    std::ostringstream ss;
    ss << in.rdbuf();
    std::string text = ss.str();
    std::size_t totals = text.find("\"totals\"");
    if (totals == std::string::npos)
        return -1.0;
    const std::string key = "\"wall_ms\":";
    std::size_t wall = text.find(key, totals);
    if (wall == std::string::npos)
        return -1.0;
    return std::strtod(text.c_str() + wall + key.size(), nullptr);
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: genie_bench [--quick] [--out=FILE] "
                 "[--baseline=FILE] [--max-regress=PCT]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    std::string outPath = "BENCH_genie.json";
    std::string baselinePath;
    double maxRegressPct = 20.0;

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else if (std::strncmp(argv[i], "--out=", 6) == 0)
            outPath = argv[i] + 6;
        else if (std::strncmp(argv[i], "--baseline=", 11) == 0)
            baselinePath = argv[i] + 11;
        else if (std::strncmp(argv[i], "--max-regress=", 14) == 0)
            maxRegressPct = std::strtod(argv[i] + 14, nullptr);
        else
            return usage();
    }

    std::vector<BenchResult> results;
    SweepBench sweep;
    try {
        for (const Scenario &s : scenarios) {
            if (quick && !s.quick)
                continue;
            std::printf("bench %-20s %-18s %s\n", s.name, s.workload,
                        s.options);
            BenchResult r = runScenario(s);
            std::printf("  wall %8.2f ms, %8llu events, %7.3f MEPS, "
                        "sim %10.2f us\n",
                        r.wallMs, (unsigned long long)r.events,
                        r.meps, r.sim.totalUs());
            std::printf("  blame: %s (%.1f%% of path, coverage "
                        "%.1f%%)\n",
                        r.blame.topCategory.c_str(),
                        r.blame.topShare * 100.0,
                        r.blame.coverage * 100.0);
            results.push_back(r);
        }
        std::printf("bench %-20s reduced fig6+fig8 DMA spaces\n",
                    "sweep-engine");
        sweep = runSweepBench();
        std::printf("  wall %8.2f ms, %8llu events, %7.3f MEPS, "
                    "%zu points (%zu cached)\n",
                    sweep.wallMs, (unsigned long long)sweep.events,
                    sweep.meps, sweep.points, sweep.cached);

    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }

    std::string json = benchJson(results, sweep, quick);
    std::ofstream out(outPath);
    if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     outPath.c_str());
        return 1;
    }
    out << json;
    out.close();
    std::printf("wrote %s (%zu benches)\n", outPath.c_str(),
                results.size());

    if (!baselinePath.empty()) {
        double baseMs = totalWallMs(baselinePath);
        if (baseMs <= 0) {
            std::fprintf(stderr,
                         "error: no totals.wall_ms in baseline %s\n",
                         baselinePath.c_str());
            return 1;
        }
        double curMs = totalWallMs(outPath);
        double ceiling = baseMs * (1.0 + maxRegressPct / 100.0);
        std::printf("regression gate: %.3f ms vs baseline %.3f ms "
                    "(ceiling %.3f)\n",
                    curMs, baseMs, ceiling);
        if (curMs > ceiling) {
            std::fprintf(stderr,
                         "error: wall time regressed more than %.0f%% "
                         "(%.3f > %.3f ms)\n",
                         maxRegressPct, curMs, ceiling);
            return 1;
        }
    }
    return 0;
}
