/**
 * @file
 * Results of one SoC simulation run: runtime, the paper's four-way
 * cycle-class breakdown, energy/power/EDP, and microarchitectural
 * detail stats used by the figures.
 */

#ifndef GENIE_CORE_RESULTS_HH
#define GENIE_CORE_RESULTS_HH

#include <cstdint>
#include <vector>

#include "core/soc_config.hh"
#include "sim/types.hh"

namespace genie
{

class Dddg;
class Trace;

/**
 * One accelerator's workload and design inside a Soc. The trace and
 * DDDG must outlive the Soc. @p design supplies the accelerator's own
 * knobs: memory interface, lanes, partitions, DMA pipelining and
 * triggering, page size, ACP window, cache, TLB, dirty-input CPU L1,
 * per-array mem_type, command queue depth, invocations and perfect
 * memory.
 * Everything shared — bus, clocks, CPU line and L1 size, flush and
 * DMA-engine costs, completion mode, isolation, tracing, metrics and
 * faults — comes from the Soc's platform config.
 */
struct AcceleratorSpec
{
    const Trace *trace = nullptr;
    const Dddg *dddg = nullptr;
    SocConfig design;
};

/** One accelerator's outcome inside a Soc. */
struct AcceleratorResult
{
    /** Offload start (t=0) to the driver returning from the wait that
     * saw this accelerator's last completion. */
    Tick finishTick = 0;
    /** This accelerator's datapath cycles (last invocation). */
    Cycles accelCycles = 0;
};

/** The paper's runtime classification (Figures 2b, 5, 6). */
struct RuntimeBreakdown
{
    Tick flushOnly = 0;   ///< flush active, no DMA, no compute
    Tick dmaFlush = 0;    ///< DMA active (flush or not), no compute
    Tick computeDma = 0;  ///< compute and DMA overlapped
    Tick computeOnly = 0; ///< compute active, no DMA
    Tick other = 0;       ///< setup, synchronization, drain

    Tick
    total() const
    {
        return flushOnly + dmaFlush + computeDma + computeOnly + other;
    }
};

/**
 * Everything measured in one run. With several accelerators, times,
 * bus and DRAM figures describe the whole system; energy, byte,
 * conflict, stall, SRAM, bandwidth, lane and cycle figures sum over
 * the accelerators; the miss and hit rates pool every accelerator's
 * cache and TLB.
 */
struct SocResults
{
    /** End-to-end offload latency (flush start to CPU noticing the
     * completion flag), in ticks. */
    Tick totalTicks = 0;
    /** Datapath cycles from accelerator start to finish. */
    Cycles accelCycles = 0;

    RuntimeBreakdown breakdown;

    /** Accelerator energy (datapath + local memory + TLB + DMA path),
     * in picojoules. CPU and DRAM are excluded, as in the paper. */
    double energyPj = 0.0;
    double dynamicPj = 0.0;
    double leakagePj = 0.0;

    /** Average accelerator power over the run, in milliwatts. */
    double avgPowerMw = 0.0;

    /** Energy-delay product in joule-seconds. */
    double edp = 0.0;

    // Microarchitectural detail.
    double cacheMissRate = 0.0;
    double tlbHitRate = 0.0;
    double dramRowHitRate = 0.0;
    double busUtilization = 0.0;
    std::uint64_t dmaBytes = 0;
    std::uint64_t spadConflicts = 0;
    std::uint64_t readyBitStalls = 0;
    std::uint64_t cacheToCacheTransfers = 0;

    /** True when the watchdog aborted the run; the numbers above are
     * the partial state at the moment of the stall. */
    bool stalled = false;

    // Design descriptors used by the Kiviat comparison (Figure 9).
    std::uint64_t localSramBytes = 0;
    double localMemBandwidthBytesPerCycle = 0.0;
    unsigned lanes = 0;

    /** Per-accelerator outcomes, in AcceleratorSpec order. */
    std::vector<AcceleratorResult> accelerators;

    double totalSeconds() const { return static_cast<double>(totalTicks) * 1e-12; }
    double totalUs() const { return static_cast<double>(totalTicks) * 1e-6; }
    double energyJ() const { return energyPj * 1e-12; }
};

} // namespace genie

#endif // GENIE_CORE_RESULTS_HH
