/**
 * @file
 * Shared-resource contention study (Section IV-A's fourth design
 * consideration, measured directly with multi-accelerator systems).
 *
 * The paper argues that a coarse-grained mechanism like DMA suffers
 * more under shared-resource contention than fine-grained cache
 * fills: the accelerator waits for the entire bulk transfer, while
 * cache misses are small and hit-under-miss lets independent work
 * proceed. Here we co-schedule each memory system with an
 * increasingly aggressive bus-hog neighbor and report the slowdown
 * relative to running alone, on 32- and 64-bit buses.
 */

#include "bench_util.hh"

#include "core/soc.hh"

namespace genie::bench
{
namespace
{

AcceleratorSpec
makeSpec(const Prep &p, const SocConfig &design)
{
    AcceleratorSpec s;
    s.trace = &p.trace;
    s.dddg = &p.dddg;
    s.design = design;
    return s;
}

Tick
victimFinish(const Prep &victim, const SocConfig &victimDesign,
             unsigned hogs, unsigned busWidth)
{
    SocConfig platform;
    platform.busWidthBits = busWidth;
    std::vector<AcceleratorSpec> specs;
    specs.push_back(makeSpec(victim, victimDesign));
    const Prep &hog = prep("kmp-kmp"); // pure streaming bus hog
    for (unsigned i = 0; i < hogs; ++i) {
        SocConfig hogDesign;
        hogDesign.memType = MemInterface::ScratchpadDma;
        hogDesign.lanes = 16;
        hogDesign.spadPartitions = 16;
        hogDesign.dma.triggeredCompute = true;
        specs.push_back(makeSpec(hog, hogDesign));
    }
    Soc soc(platform, std::move(specs));
    return soc.run().accelerators[0].finishTick;
}

int
run()
{
    banner("Contention",
           "DMA vs cache accelerators under shared-resource "
           "contention (streaming neighbors on one bus)");

    const Prep &victim = prep("stencil-stencil3d");

    SocConfig dmaDesign;
    dmaDesign.memType = MemInterface::ScratchpadDma;
    dmaDesign.lanes = 4;
    dmaDesign.spadPartitions = 4;
    dmaDesign.dma.triggeredCompute = true;

    SocConfig cacheDesign;
    cacheDesign.memType = MemInterface::Cache;
    cacheDesign.lanes = 4;
    cacheDesign.cache.sizeBytes = 16 * 1024;
    cacheDesign.cache.ports = 2;

    for (unsigned bus : {32u, 64u}) {
        std::printf("\n%u-bit bus, victim = stencil3d, neighbors = "
                    "streaming kmp accelerators:\n",
                    bus);
        std::printf("  %9s %16s %16s\n", "neighbors", "dma slowdown",
                    "cache slowdown");
        Tick dmaAlone = victimFinish(victim, dmaDesign, 0, bus);
        Tick cacheAlone = victimFinish(victim, cacheDesign, 0, bus);
        for (unsigned hogs : {1u, 2u, 3u}) {
            Tick dmaT = victimFinish(victim, dmaDesign, hogs, bus);
            Tick cacheT =
                victimFinish(victim, cacheDesign, hogs, bus);
            std::printf("  %9u %15.2fx %15.2fx\n", hogs,
                        static_cast<double>(dmaT) /
                            static_cast<double>(dmaAlone),
                        static_cast<double>(cacheT) /
                            static_cast<double>(cacheAlone));
        }
    }

    std::printf("\nExpected shape (paper, Section IV-A): the "
                "coarse-grained DMA victim degrades\nfaster with "
                "added neighbors than the fine-grained cache victim; "
                "the wide bus\nsoftens both.\n");
    return 0;
}

} // namespace
} // namespace genie::bench

int
main()
{
    return genie::bench::run();
}
