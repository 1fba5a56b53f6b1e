/**
 * @file
 * Example: a small co-design exploration for one kernel.
 *
 * Shows the DSE API: enumerate a design space, simulate every point
 * through the SweepEngine, extract the Pareto frontier and the EDP
 * optimum, and quantify how badly an accelerator designed in
 * isolation behaves once real system effects (cache flushes, DMA, bus
 * contention) are applied — the paper's central experiment, on any
 * workload you pick.
 *
 *   codesign_explorer [workload] [--threads=N]
 *
 * Both sweeps share one ResultCache, so the points they have in
 * common are simulated once. For a sweep that survives the process,
 * use genie_sweep --store=DIR (see dse/result_store.hh).
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "dse/pareto.hh"
#include "dse/sweep.hh"
#include "dse/sweep_engine.hh"
#include "sim/whole_number.hh"
#include "workloads/workload.hh"

int
main(int argc, char **argv)
{
    using namespace genie;

    std::string name = "md-knn";
    SweepOptions options;
    for (int i = 1; i < argc; ++i) {
        bool threads = std::strncmp(argv[i], "--threads=", 10) == 0;
        if (threads && parseWholeNumber(argv[i] + 10, options.threads))
            continue;
        if (argv[i][0] == '-') {
            std::fprintf(stderr,
                         "usage: codesign_explorer [workload] "
                         "[--threads=N]\n");
            return 2;
        }
        name = argv[i];
    }

    auto out = makeWorkload(name)->build();
    Dddg dddg(out.trace);

    std::printf("co-design exploration for %s\n\n", name.c_str());

    // Sweep the isolated space (compute phase only) and the
    // co-designed DMA space (full system, all DMA optimizations).
    // One cache serves both sweeps: identical points dedupe.
    ResultCache cache;
    options.cache = &cache;
    SocConfig base;
    SweepEngine engine(std::move(options));
    auto isolated =
        engine.run(DesignSpace::isolated(base), out.trace, dddg);
    auto system = engine.run(DesignSpace::dma(base), out.trace, dddg);
    if (cache.hits() > 0) {
        std::printf("(%llu of %zu points served from the result "
                    "cache)\n\n",
                    (unsigned long long)cache.hits(),
                    isolated.size() + system.size());
    }

    // Pareto frontier of the co-designed space.
    std::printf("co-designed Pareto frontier:\n");
    for (std::size_t i : paretoFrontier(system)) {
        const auto &p = system[i];
        std::printf("  %10.1f us %8.2f mW   %s\n",
                    p.results.totalUs(), p.results.avgPowerMw,
                    p.config.describe().c_str());
    }

    // Compare the isolated and co-designed EDP optima.
    auto cmp = compareCodesign(
        isolated, system, [&](const SocConfig &iso) {
            SocConfig full = iso;
            full.isolated = false;
            full.dma.pipelined = true;
            full.dma.triggeredCompute = true;
            DesignPoint p;
            p.config = full;
            p.results = runDesign(full, out.trace, dddg);
            return p;
        });

    std::printf("\nisolated optimum:    %s\n",
                cmp.isolatedOptimal.config.describe().c_str());
    std::printf("  looked like: %.1f us at %.2f mW\n",
                cmp.isolatedOptimal.results.totalUs(),
                cmp.isolatedOptimal.results.avgPowerMw);
    std::printf("  actually is: %.1f us at %.2f mW once flush/DMA "
                "are accounted\n",
                cmp.isolatedUnderSystem.results.totalUs(),
                cmp.isolatedUnderSystem.results.avgPowerMw);
    std::printf("co-designed optimum: %s\n",
                cmp.codesignedOptimal.config.describe().c_str());
    std::printf("  %.1f us at %.2f mW\n",
                cmp.codesignedOptimal.results.totalUs(),
                cmp.codesignedOptimal.results.avgPowerMw);
    std::printf("\nEDP improvement from co-design: %.2fx\n",
                cmp.edpImprovement);

    // Kiviat-style normalized parameters (Figure 9 axes).
    KiviatAxes k =
        kiviatAxes(cmp.codesignedOptimal, cmp.isolatedOptimal);
    std::printf("co-designed vs isolated provisioning: lanes %.2f, "
                "sram %.2f, bandwidth %.2f\n",
                k.lanes, k.sramSize, k.memBandwidth);
    return 0;
}
