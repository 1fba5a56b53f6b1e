/**
 * @file
 * genie_sweep: the restartable design-space-sweep service CLI.
 *
 * Runs one of the paper's Figure 3 design spaces for a workload under
 * the SweepEngine — longest-job-first scheduling, result-cache
 * dedupe, and the durable ResultStore, so an interrupted sweep
 * resumes where it stopped:
 *
 *   genie_sweep stencil-stencil2d --space=fig6 --out=results.json
 *   genie_sweep md-knn --space=fig8 --filter="lanes=1,4" \
 *               --store=sweep-store --out=results.json
 *
 * Spaces: single (just the base config), isolated (compute-only lanes
 * x partitions), dma (Fig. 8 DMA space, all optimizations), fig6 (DMA
 * optimization cross-product), cache (Fig. 8 cache space), fig8 (dma
 * + cache concatenated), acp (coherency-port lanes x partitions),
 * iface (spin/interrupt x dma/acp/cache — the three-regime
 * SoC-interface space). `key=value` pairs (core/config_parse.hh) set
 * the base config the space is enumerated around; --filter carves an
 * axis-value subset.
 *
 * --store=DIR opens the durable content-addressed ResultStore behind
 * the in-memory cache. Every finished point is written through as it
 * completes and keyed on the workload's trace digest plus its
 * config, so one store serves any number of kernels, several
 * genie_sweep processes can share it at once (each write is atomic
 * and locked), and resuming an interrupted sweep is re-running the
 * same command: finished points come back as store hits.
 * --store-budget=BYTES bounds the store with LRU eviction.
 * --max-points=N stops cleanly after N fresh
 * simulations (exit code 4) — the deterministic way to exercise
 * interruption in CI. SIGINT/SIGTERM request a graceful drain:
 * in-flight points finish and are stored, then the tool exits 5.
 * --threads, --max-points and --store-budget take whole decimal
 * numbers only; anything else is a usage error (exit 2).
 *
 * Results (--out, "-" = stdout) are the deterministic
 * genie-sweep-results-1 JSON in enumeration order: byte-identical
 * across thread counts and cold/warm/resumed runs. When --out,
 * --report or --stats-json is "-", the summary, progress, Pareto and
 * "wrote" lines go to stderr, so stdout carries only that document;
 * more than one of them on stdout is a usage error. --stats-json
 * exports the engine's StatRegistry block (points done/cached/failed,
 * events, MEPS, store hits).
 *
 * --report=FILE writes the Genie-Scope sweep report once the sweep
 * has completed (never after an interruption): the cross-run table,
 * annotated with critical-path blame from re-simulating points with
 * tracing on. Up to --blame-points points (default 64) every point
 * is blamed; past that, only the Pareto frontier, and the report
 * says so. Like the results JSON, the report is byte-identical
 * across thread counts and cold/warm/resumed runs. The single-run
 * report is `genie_run --report`.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/config_parse.hh"
#include "core/soc.hh"
#include "dse/pareto.hh"
#include "dse/result_json.hh"
#include "dse/result_store.hh"
#include "dse/sweep.hh"
#include "dse/sweep_engine.hh"
#include "metrics/export.hh"
#include "scope/report.hh"
#include "scope/span_dag.hh"
#include "sim/whole_number.hh"
#include "workloads/workload.hh"

namespace
{

using namespace genie;

/** Set by the SIGINT/SIGTERM handler; polled by the sweep workers
 * (SweepOptions::stopRequested). */
std::atomic<bool> gDrainRequested{false};

void
onDrainSignal(int)
{
    gDrainRequested.store(true);
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: genie_sweep <workload> [key=value ...]\n"
        "         [--space=single|isolated|dma|fig6|cache|fig8|acp|"
        "iface]\n"
        "         [--filter=\"lanes=1,4;partitions=1,4;...\"]\n"
        "         [--threads=N] [--store=DIR] "
        "[--store-budget=BYTES]\n"
        "         [--out=FILE] [--stats-json=FILE] "
        "[--max-points=N]\n"
        "         [--progress] [--pareto] [--report=FILE] "
        "[--blame-points=N]\n"
        "       genie_sweep --list\n"
        "exit:  0 ok, 1 error, 2 usage, 4 interrupted by "
        "--max-points,\n"
        "       5 drained by SIGINT/SIGTERM\n");
    return 2;
}

/** Write @p text to @p path, "-" meaning stdout. */
bool
writeOutput(const std::string &path, const std::string &text)
{
    if (path == "-") {
        std::fputs(text.c_str(), stdout);
        return true;
    }
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
        return false;
    }
    out << text;
    return true;
}

/** Re-simulate @p config traced (in-memory) and blame the run. */
BlameReport
blamePoint(SocConfig config, const Trace &trace, const Dddg &dddg)
{
    config.tracing.enabled = true;
    config.tracing.categories = allTraceCategories;
    config.tracing.outPath.clear();
    Soc soc(config, trace, dddg);
    soc.run();
    return blameRun(*soc.tracer());
}

/** The sweep report: blame every point when the space is small;
 * otherwise only the Pareto frontier (the designs anyone asks "why?"
 * about). */
std::string
sweepReport(const std::string &title,
            const std::vector<DesignPoint> &points,
            std::size_t blamePoints, const Trace &trace,
            const Dddg &dddg)
{
    std::vector<std::size_t> toBlame;
    std::string note;
    if (points.size() <= blamePoints) {
        for (std::size_t i = 0; i < points.size(); ++i)
            toBlame.push_back(i);
        note = format("blame: all %zu points re-run traced",
                      points.size());
    } else {
        toBlame = paretoFrontier(points);
        note = format("blame: Pareto frontier only (%zu of %zu "
                      "points; raise --blame-points to widen)",
                      toBlame.size(), points.size());
    }
    SweepReportInput in;
    in.title = title;
    in.points = &points;
    for (std::size_t i : toBlame)
        in.blames.emplace_back(i, blamePoint(points[i].config, trace, dddg));
    in.blameScopeNote = note;
    return renderSweepReport(in);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::string space = "fig6";
    std::string filterSpec;
    std::string outPath;
    std::string statsJsonPath;
    std::string storeDir;
    std::string reportPath;
    std::uint64_t storeBudget = 0;
    std::size_t blamePoints = 64;
    bool progress = false;
    bool pareto = false;
    SweepOptions options;
    std::vector<std::string> baseOptions;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--list") == 0) {
            for (const auto &name : genie::workloadNames())
                std::printf("%s\n", name.c_str());
            return 0;
        } else if (std::strncmp(arg, "--space=", 8) == 0) {
            space = arg + 8;
        } else if (std::strncmp(arg, "--filter=", 9) == 0) {
            filterSpec = arg + 9;
        } else if (std::strncmp(arg, "--threads=", 10) == 0) {
            if (!parseWholeNumber(arg + 10, options.threads))
                return usage();
        } else if (std::strncmp(arg, "--store=", 8) == 0) {
            storeDir = arg + 8;
        } else if (std::strncmp(arg, "--store-budget=", 15) == 0) {
            if (!parseWholeNumber(arg + 15, storeBudget))
                return usage();
        } else if (std::strncmp(arg, "--out=", 6) == 0) {
            outPath = arg + 6;
        } else if (std::strncmp(arg, "--stats-json=", 13) == 0) {
            statsJsonPath = arg + 13;
        } else if (std::strncmp(arg, "--max-points=", 13) == 0) {
            if (!parseWholeNumber(arg + 13, options.maxFreshPoints))
                return usage();
        } else if (std::strcmp(arg, "--progress") == 0) {
            progress = true;
        } else if (std::strcmp(arg, "--pareto") == 0) {
            pareto = true;
        } else if (std::strncmp(arg, "--report=", 9) == 0) {
            reportPath = arg + 9;
        } else if (std::strncmp(arg, "--blame-points=", 15) == 0) {
            if (!parseWholeNumber(arg + 15, blamePoints))
                return usage();
        } else if (arg[0] == '-') {
            return usage();
        } else if (workload.empty()) {
            workload = arg;
        } else {
            baseOptions.push_back(arg);
        }
    }
    // stdout holds at most one document; when it holds one, every
    // other line goes to stderr.
    const int toStdout = (outPath == "-") + (reportPath == "-") +
                         (statsJsonPath == "-");
    if (workload.empty() || toStdout > 1)
        return usage();
    FILE *info = toStdout == 1 ? stderr : stdout;

    // Graceful drain: a signal stops the deal of new points;
    // in-flight points finish and are stored normally.
    std::signal(SIGINT, onDrainSignal);
    std::signal(SIGTERM, onDrainSignal);
    options.stopRequested = &gDrainRequested;

    try {
        auto built = makeWorkload(workload)->build();
        Dddg dddg(built.trace);
        SocConfig base = parseConfig(baseOptions);
        auto configs = enumerateSpace(space, base);
        if (!filterSpec.empty()) {
            configs = filterConfigs(configs,
                                    SpaceFilter::parse(filterSpec));
        }
        if (configs.empty())
            fatal("the filter rejected every design point");

        ResultStore store;
        if (!storeDir.empty()) {
            store.open(storeDir, storeBudget);
            options.store = &store;
        }

        if (progress) {
            options.onProgress = [info](const SweepProgress &p) {
                std::fprintf(info,
                             "\r  %zu/%zu done, %zu cached, %zu "
                             "failed | %.1f pts/s, ETA %.1fs, hit "
                             "%.0f%%, occ %.0f%% [%u workers]   ",
                             p.done, p.total, p.cached, p.failed,
                             p.pointsPerSecond, p.etaSeconds,
                             p.cacheHitRate * 100.0,
                             p.occupancy * 100.0, p.workers);
                std::fflush(info);
            };
            // ~30 repaints/s keeps cache-hot sweeps (thousands of
            // points/s) from spending their time in printf.
            options.progressIntervalNs = 33'000'000;
        }

        SweepEngine engine(std::move(options));
        auto t0 = std::chrono::steady_clock::now();
        auto points = engine.run(configs, built.trace, dddg);
        auto t1 = std::chrono::steady_clock::now();
        if (progress)
            std::fprintf(info, "\n");

        SweepProgress final = engine.progress();
        double wallMs =
            std::chrono::duration<double, std::milli>(t1 - t0)
                .count();
        std::fprintf(info,
                     "sweep %s %s: %zu points — %zu simulated, %zu "
                     "cached, %zu failed\n",
                     workload.c_str(), space.c_str(), final.total,
                     final.done, final.cached, final.failed);
        std::fprintf(info, "  wall %.1f ms, %llu events, %.3f MEPS\n",
                     wallMs,
                     (unsigned long long)engine.simulatedEvents(),
                     engine.meps());
        if (engine.storeHits() > 0) {
            std::fprintf(info, "  store: %llu hit(s) from %s\n",
                         (unsigned long long)engine.storeHits(),
                         storeDir.c_str());
        }

        if (!statsJsonPath.empty()) {
            StatRegistry registry;
            engine.registerStats(registry);
            writeStatsJsonFile(statsJsonPath, registry);
        }

        if (engine.interrupted()) {
            const char *how = gDrainRequested.load()
                                  ? "drained by signal"
                                  : "interrupted";
            if (storeDir.empty()) {
                std::fprintf(info,
                             "%s after %zu fresh points; nothing was "
                             "stored (no --store)\n",
                             how, final.done);
            } else {
                std::fprintf(info,
                             "%s after %zu fresh points; re-run the "
                             "same command to resume from %s\n",
                             how, final.done, storeDir.c_str());
            }
            return gDrainRequested.load() ? 5 : 4;
        }

        if (pareto) {
            std::fprintf(info, "Pareto frontier:\n");
            for (std::size_t i : paretoFrontier(points)) {
                const auto &p = points[i];
                std::fprintf(info, "  %10.1f us %8.2f mW   %s\n",
                             p.results.totalUs(),
                             p.results.avgPowerMw,
                             p.config.describe().c_str());
            }
        }

        if (!outPath.empty()) {
            std::ostringstream json;
            writeSweepResultsJson(json, points, workload);
            if (!writeOutput(outPath, json.str()))
                return 1;
            if (outPath != "-") {
                std::fprintf(info, "wrote %s (%zu points)\n",
                             outPath.c_str(), points.size());
            }
        }
        if (!reportPath.empty()) {
            std::string report = sweepReport(
                format("%s (%s)", workload.c_str(), space.c_str()),
                points, blamePoints, built.trace, dddg);
            if (!writeOutput(reportPath, report))
                return 1;
            if (reportPath != "-") {
                std::fprintf(info, "wrote %s (%zu bytes)\n",
                             reportPath.c_str(), report.size());
            }
        }
        return 0;
    } catch (const SweepError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
