/**
 * @file
 * Design-space enumeration and the multithreaded sweep runner.
 *
 * The sweeps mirror the paper's Figure 3 parameter table: datapath
 * lanes {1,2,4,8,16}, scratchpad partitioning {1,2,4,8,16}, transfer
 * mechanism {DMA, cache}, pipelined DMA and DMA-triggered compute
 * {on, off}, cache size {2..64 KB}, line size {16,32,64 B}, ports
 * {1,2,4,8}, associativity {4,8}, bus width {32,64 b}.
 *
 * Every Soc owns its own event queue, so design points are simulated
 * concurrently across hardware threads.
 */

#ifndef GENIE_DSE_SWEEP_HH
#define GENIE_DSE_SWEEP_HH

#include <string>
#include <vector>

#include "core/soc.hh"
#include "sim/thread_safety.hh"

namespace genie
{

struct DesignPoint GENIE_THREAD_LOCAL_OK
{
    SocConfig config;
    SocResults results;
};

class DesignSpace
{
  public:
    /** Standard sweep values from Figure 3. */
    static const std::vector<unsigned> &laneValues();
    static const std::vector<unsigned> &partitionValues();
    static const std::vector<unsigned> &cacheSizeValues();
    static const std::vector<unsigned> &cacheLineValues();
    static const std::vector<unsigned> &cachePortValues();
    static const std::vector<unsigned> &cacheAssocValues();

    /** Isolated accelerator designs: lanes x partitions, compute
     * phase only (the paper's "designed in isolation" space). */
    static std::vector<SocConfig> isolated(const SocConfig &base);

    /** Full-system DMA designs with all DMA optimizations applied
     * (the Figure 8 DMA space): lanes x partitions. */
    static std::vector<SocConfig> dma(const SocConfig &base);

    /** DMA designs across optimization settings (Figure 6 studies):
     * lanes x partitions x pipelined x triggered. */
    static std::vector<SocConfig> dmaOptions(const SocConfig &base);

    /** Full-system cache designs (the Figure 8 cache space):
     * lanes x size x line x ports x assoc. */
    static std::vector<SocConfig> cache(const SocConfig &base);

    /** Full-system ACP designs (Genie-Iface third regime): lanes x
     * partitions with every array moved over the coherency port —
     * no flush, no invalidate, loads snooping the dirty CPU L1. */
    static std::vector<SocConfig> acp(const SocConfig &base);

    /**
     * The combined SoC-interface space (fig08-style third frontier):
     * {spin, interrupt} completion x [the DMA space, the ACP space,
     * and one default-parameter cache design per lane count]. Plots
     * all three interface regimes on one Pareto chart.
     */
    static std::vector<SocConfig> iface(const SocConfig &base);

    /**
     * Map an isolated scratchpad design onto cache parameters the way
     * an isolation-minded designer would: a cache big enough to hold
     * the whole working set (@p workingSetBytes rounded up to a power
     * of two within the sweepable range) with ports matching the
     * scratchpad bandwidth.
     */
    static SocConfig isolatedAsCache(const SocConfig &isolated,
                                     std::uint64_t workingSetBytes);
};

/**
 * Enumerate the design space named @p space around @p base: the
 * Figure 3 families (isolated, dma, fig6 alias dma-options, cache,
 * fig8 = dma then cache, acp, iface) plus "single", exactly the base
 * point. fatal() on unknown names.
 */
std::vector<SocConfig> enumerateSpace(const std::string &space,
                                      const SocConfig &base);

/**
 * An axis-value subset of a design space, used to carve small,
 * reproducible slices of the Figure 3 spaces (golden-figure tests,
 * CI smoke sweeps, the genie_sweep --filter flag). An empty value
 * list leaves that axis unconstrained; the cache axes only constrain
 * cache-mode configs, so a mixed DMA+cache space filters sanely.
 */
struct SpaceFilter GENIE_THREAD_LOCAL_OK
{
    std::vector<unsigned> lanes;
    std::vector<unsigned> partitions;
    std::vector<unsigned> cacheKb;
    std::vector<unsigned> cacheLine;
    std::vector<unsigned> cachePorts;
    std::vector<unsigned> cacheAssoc;
    /** Interface regimes ("dma", "acp", "cache"); a config's regime
     * is cache when memType is Cache, acp when any array rides the
     * coherency port, dma otherwise. */
    std::vector<std::string> memTypes;
    /** Completion modes ("spin", "interrupt"). */
    std::vector<std::string> completions;

    bool accepts(const SocConfig &config) const;

    /**
     * Parse a spec such as "lanes=1,4;partitions=1,4;cache_kb=2,16"
     * or "mem_type=dma,acp;completion=interrupt". Axes: lanes,
     * partitions, cache_kb, cache_line, cache_ports, cache_assoc,
     * mem_type, completion. fatal() on unknown axes, malformed
     * values, or an axis given twice (never a silent override).
     */
    static SpaceFilter parse(const std::string &spec);
};

/** The subset of @p configs accepted by @p filter, in order. */
std::vector<SocConfig> filterConfigs(
    const std::vector<SocConfig> &configs, const SpaceFilter &filter);

/**
 * Simulate every configuration (in parallel when @p threads > 1).
 * Results are returned in the order of @p configs. A thin wrapper
 * over SweepEngine (see dse/sweep_engine.hh) with default options:
 * private cache, no store, worker exceptions rethrown as
 * SweepError.
 */
std::vector<DesignPoint> runSweep(const std::vector<SocConfig> &configs,
                                  const Trace &trace, const Dddg &dddg,
                                  unsigned threads = 0);

} // namespace genie

#endif // GENIE_DSE_SWEEP_HH
