/**
 * @file
 * The full SoC/accelerator design-parameter space (the paper's
 * Figure 3 table) plus the study switches used by the evaluation.
 */

#ifndef GENIE_CORE_SOC_CONFIG_HH
#define GENIE_CORE_SOC_CONFIG_HH

#include <cstdint>
#include <string>

#include "fault/fault_config.hh"
#include "iface/iface_config.hh"
#include "metrics/metrics_config.hh"
#include "sim/types.hh"
#include "trace/tracer.hh"

namespace genie
{

/** The accelerator's local memory interface. */
enum class MemInterface : std::uint8_t
{
    ScratchpadDma, ///< private scratchpads filled by DMA
    Cache,         ///< hardware-managed coherent cache
};

constexpr const char *
memInterfaceName(MemInterface m)
{
    return m == MemInterface::ScratchpadDma ? "dma" : "cache";
}

/** DMA latency optimizations (Section IV-B). */
struct DmaOptions
{
    /** Overlap flush of page b+1 with DMA of page b. */
    bool pipelined = false;
    /** Full/empty ready bits: start compute before DMA finishes. */
    bool triggeredCompute = false;
    /** Page granularity for pipelined flush/DMA chunking. */
    unsigned pageBytes = 4096;
    /** Fixed per-transaction setup (accelerator cycles). */
    Cycles setupCycles = 40;
    /** Beats kept in flight by the engine. */
    unsigned maxOutstanding = 8;
};

/** Accelerator cache parameters (Figure 3 sweep values). */
struct CacheOptions
{
    unsigned sizeBytes = 16 * 1024; ///< 2..64 KB
    unsigned lineBytes = 64;        ///< 16/32/64 B
    unsigned assoc = 4;             ///< 4/8
    unsigned ports = 1;             ///< 1/2/4/8
    unsigned mshrs = 16;
    Cycles hitLatency = 1;
    bool prefetch = true;           ///< strided prefetcher
};

/**
 * Aladdin's array-partitioning optimization: small arrays (constant
 * tables, coefficient vectors) are *completely* partitioned — every
 * word becomes its own register-like bank — while large arrays use
 * the swept cyclic partitioning factor.
 */
constexpr unsigned completePartitionWordLimit = 64;

constexpr unsigned
effectiveSpadPartitions(std::uint64_t sizeBytes, unsigned wordBytes,
                        unsigned configured)
{
    std::uint64_t words = sizeBytes / wordBytes;
    if (words > 0 && words <= completePartitionWordLimit)
        return static_cast<unsigned>(words);
    return configured;
}

/** One complete design point. */
struct SocConfig
{
    MemInterface memType = MemInterface::ScratchpadDma;

    /** Datapath lanes: 1..16. */
    unsigned lanes = 4;
    /** Scratchpad partitions per array: 1..16. */
    unsigned spadPartitions = 1;

    DmaOptions dma;
    CacheOptions cache;

    /** System bus width: 32 or 64 bits. */
    unsigned busWidthBits = 32;

    /** Clocks. The accelerator runs at 100 MHz, the frequency at
     * which a 4 KB flush and a 4 KB DMA balance on the Zedboard
     * (Section IV-B1). */
    std::uint64_t accelMhz = 100;
    std::uint64_t cpuMhz = 667;
    std::uint64_t busMhz = 100;

    /** Accelerator TLB. */
    unsigned tlbEntries = 8;
    Tick tlbMissLatency = 200 * tickPerNs;

    /** Characterized CPU cache maintenance costs. */
    Tick flushPerLine = 84 * tickPerNs;
    Tick invalidatePerLine = 71 * tickPerNs;
    unsigned cpuLineBytes = 64;

    /** CPU L1 holding freshly produced (dirty) input data; in cache
     * mode the accelerator's misses snoop it. */
    unsigned cpuCacheBytes = 32 * 1024;
    bool cpuHoldsDirtyInput = true;

    /** Event tracing (observability only; never affects results). */
    TraceConfig tracing;

    /** Metrics sampling and export (observability only; never
     * affects results). */
    MetricsConfig metrics;

    /** Fault campaign + watchdog (Genie-Resilience). All-zero rates
     * (the default) construct no injector at all, so a zero-rate
     * campaign is byte-identical to a fault-free run. */
    FaultConfig faults;

    /** SoC-interface regime (Genie-Iface): completion mode, ACP
     * vs DMA data movement, command queue. Defaults select the
     * paper's baseline (spin + DMA + no queue) and construct no
     * iface component, keeping default runs byte-identical to a
     * pre-iface build. iface.memType is kept in sync with memType by
     * the mem=/mem_type= config keys. */
    IfaceConfig iface;

    // ---- Study switches (not hardware knobs) ----

    /** Design the accelerator in isolation: data preloaded, runtime
     * and energy cover the compute phase only (Figure 1 baseline). */
    bool isolated = false;
    /** Figure-7 decomposition step 1: single-cycle perfect memory. */
    bool perfectMemory = false;
    /** Figure-7 decomposition step 2: unlimited bus bandwidth. */
    bool infiniteBandwidth = false;

    /** Short human-readable description. */
    std::string describe() const;
};

} // namespace genie

#endif // GENIE_CORE_SOC_CONFIG_HH
