/**
 * @file
 * genie_sweep: the restartable design-space-sweep service CLI.
 *
 * Runs one of the paper's Figure 3 design spaces for a workload under
 * the SweepEngine — work-stealing scheduling, result-cache dedupe,
 * and the durable ResultStore, so an interrupted sweep resumes where
 * it stopped:
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
 * across thread counts and cold/warm/resumed runs. --stats-json
 * exports the engine's StatRegistry block (points done/cached/failed,
 * events, MEPS, store hits).
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/config_parse.hh"
#include "dse/pareto.hh"
#include "dse/result_json.hh"
#include "dse/result_store.hh"
#include "dse/sweep.hh"
#include "dse/sweep_engine.hh"
#include "metrics/export.hh"
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
        "         [--progress] [--pareto]\n"
        "       genie_sweep --list\n"
        "exit:  0 ok, 1 error, 2 usage, 4 interrupted by "
        "--max-points,\n"
        "       5 drained by SIGINT/SIGTERM\n");
    return 2;
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
    std::uint64_t storeBudget = 0;
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
        } else if (arg[0] == '-') {
            return usage();
        } else if (workload.empty()) {
            workload = arg;
        } else {
            baseOptions.push_back(arg);
        }
    }
    if (workload.empty())
        return usage();

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
            options.onProgress = [](const SweepProgress &p) {
                std::printf("\r  %zu/%zu done, %zu cached, %zu "
                            "failed | %.1f pts/s, ETA %.1fs, hit "
                            "%.0f%%, occ %.0f%% [%u workers]   ",
                            p.done, p.total, p.cached, p.failed,
                            p.pointsPerSecond, p.etaSeconds,
                            p.cacheHitRate * 100.0,
                            p.occupancy * 100.0, p.workers);
                std::fflush(stdout);
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
            std::printf("\n");

        SweepProgress final = engine.progress();
        double wallMs =
            std::chrono::duration<double, std::milli>(t1 - t0)
                .count();
        std::printf("sweep %s %s: %zu points — %zu simulated, %zu "
                    "cached, %zu failed\n",
                    workload.c_str(), space.c_str(), final.total,
                    final.done, final.cached, final.failed);
        std::printf("  wall %.1f ms, %llu events, %.3f MEPS\n",
                    wallMs,
                    (unsigned long long)engine.simulatedEvents(),
                    engine.meps());
        if (engine.storeHits() > 0) {
            std::printf("  store: %llu hit(s) from %s\n",
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
                std::printf("%s after %zu fresh points; nothing was "
                            "stored (no --store)\n",
                            how, final.done);
            } else {
                std::printf("%s after %zu fresh points; re-run the "
                            "same command to resume from %s\n",
                            how, final.done, storeDir.c_str());
            }
            return gDrainRequested.load() ? 5 : 4;
        }

        if (pareto) {
            std::printf("Pareto frontier:\n");
            for (std::size_t i : paretoFrontier(points)) {
                const auto &p = points[i];
                std::printf("  %10.1f us %8.2f mW   %s\n",
                            p.results.totalUs(),
                            p.results.avgPowerMw,
                            p.config.describe().c_str());
            }
        }

        if (!outPath.empty()) {
            if (outPath == "-") {
                writeSweepResultsJson(std::cout, points, workload);
            } else {
                std::ofstream out(outPath);
                if (!out) {
                    std::fprintf(stderr, "error: cannot write %s\n",
                                 outPath.c_str());
                    return 1;
                }
                writeSweepResultsJson(out, points, workload);
                std::printf("wrote %s (%zu points)\n",
                            outPath.c_str(), points.size());
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
