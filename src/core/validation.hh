/**
 * @file
 * Closed-form analytic performance model used to validate the
 * event-driven simulator (our substitute for the paper's Zedboard
 * measurements; see DESIGN.md substitution #2).
 *
 * For the baseline DMA offload flow the end-to-end latency decomposes
 * into independently computable terms:
 *
 *   T = T_invalidate + T_flush + T_dmaIn + T_compute + T_dmaOut + T_sync
 *
 * with T_flush/T_invalidate from the per-line analytic costs,
 * T_dma from bus bandwidth plus per-transaction overheads, and
 * T_compute from a resource-constrained dataflow bound
 * (max of the DDDG critical path and per-resource throughput limits).
 * The simulator additionally models arbitration, DRAM row misses,
 * bank conflicts and queueing, so simulated cycles should exceed the
 * analytic bound by a small margin — the "error" Figure 4 reports.
 */

#ifndef GENIE_CORE_VALIDATION_HH
#define GENIE_CORE_VALIDATION_HH

#include "accel/dddg.hh"
#include "accel/trace.hh"
#include "core/soc_config.hh"

namespace genie
{

/**
 * Reject nonsensical design points with actionable messages (via
 * fatal()) before any component is constructed. Catches the
 * parameter combinations that would otherwise surface as undefined
 * behavior deep in a run — zero beat sizes (divide-by-zero in the DMA
 * pump loop), non-power-of-two line sizes (broken set indexing), a
 * zero-size outstanding window (the engine could never issue a
 * beat), out-of-range fault rates, and the like. Called by Soc on its
 * platform config and on every accelerator's design.
 */
void validateSocConfig(const SocConfig &cfg);

struct ValidationPrediction
{
    Tick invalidate = 0;
    Tick flush = 0;
    Tick dmaIn = 0;
    Tick compute = 0;
    Tick dmaOut = 0;
    Tick sync = 0;

    Tick
    total() const
    {
        return invalidate + flush + dmaIn + compute + dmaOut + sync;
    }
};

class ValidationModel
{
  public:
    /** Predict the baseline (unoptimized) DMA flow latency. */
    static ValidationPrediction predictDmaBaseline(
        const SocConfig &cfg, const Trace &trace, const Dddg &dddg);

    /** Resource-constrained compute-cycle bound (Aladdin-style). */
    static Cycles computeBound(const SocConfig &cfg, const Trace &trace,
                               const Dddg &dddg);

    /**
     * Dependence bound honoring the wave barrier: with N lanes,
     * iteration groups of N execute as synchronized waves, so the
     * schedule length is at least the sum over waves of each wave's
     * internal critical path (computed with infinite resources).
     */
    static Cycles barrierCriticalPathCycles(const Trace &trace,
                                            const Dddg &dddg,
                                            unsigned lanes);

    /** Bulk transfer time of @p bytes over the configured bus. */
    static Tick dmaTransferTime(const SocConfig &cfg,
                                std::uint64_t bytes, unsigned segments);
};

} // namespace genie

#endif // GENIE_CORE_VALIDATION_HH
