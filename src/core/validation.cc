#include "validation.hh"

#include <algorithm>
#include <array>
#include <cstdint>

#include "accel/datapath.hh"
#include "sim/logging.hh"

namespace genie
{

void
validateSocConfig(const SocConfig &cfg)
{
    if (cfg.lanes == 0)
        fatal("config: lanes=0 — the datapath needs at least one "
              "lane (lanes=1..16)");
    if (cfg.spadPartitions == 0)
        fatal("config: partitions=0 — each array needs at least one "
              "scratchpad partition (partitions=1..16)");
    if (cfg.busWidthBits == 0 || cfg.busWidthBits % 8 != 0)
        fatal("config: bus=%u bits — the bus width must be a "
              "positive multiple of 8 (the paper sweeps 32 and 64)",
              cfg.busWidthBits);
    if (cfg.accelMhz == 0 || cfg.cpuMhz == 0 || cfg.busMhz == 0)
        fatal("config: a clock is 0 MHz (accel_mhz=%llu cpu_mhz=%llu "
              "bus_mhz=%llu) — every clock domain needs a nonzero "
              "frequency",
              (unsigned long long)cfg.accelMhz,
              (unsigned long long)cfg.cpuMhz,
              (unsigned long long)cfg.busMhz);

    // cpuLineBytes doubles as the DMA beat size and the flush/ready
    // bit granularity; zero would divide-by-zero the pump loop.
    if (cfg.cpuLineBytes == 0 || !isPowerOf2(cfg.cpuLineBytes))
        fatal("config: cpuLineBytes=%u — the CPU line (and DMA beat) "
              "size must be a nonzero power of two",
              cfg.cpuLineBytes);

    if (cfg.dma.maxOutstanding == 0)
        fatal("config: dma.maxOutstanding=0 — the DMA engine could "
              "never issue a beat; use a window of at least 1");
    if (cfg.dma.pageBytes == 0 || !isPowerOf2(cfg.dma.pageBytes))
        fatal("config: dma.pageBytes=%u — the pipelined-DMA chunk "
              "size must be a nonzero power of two (4096 in the "
              "paper)",
              cfg.dma.pageBytes);

    if (cfg.memType == MemInterface::Cache) {
        if (cfg.cache.lineBytes == 0 ||
            !isPowerOf2(cfg.cache.lineBytes))
            fatal("config: cache_line=%u — the cache line size must "
                  "be a nonzero power of two (16/32/64 in the "
                  "paper's sweeps)",
                  cfg.cache.lineBytes);
        if (cfg.cache.assoc == 0)
            fatal("config: cache_assoc=0 — associativity must be at "
                  "least 1");
        // In 64 bits: line * assoc = 2^32 must not wrap to a zero
        // divisor.
        if (cfg.cache.sizeBytes == 0 ||
            cfg.cache.sizeBytes %
                    (std::uint64_t{cfg.cache.lineBytes} *
                     cfg.cache.assoc) !=
                0)
            fatal("config: cache_kb/cache_line/cache_assoc mismatch "
                  "— %u bytes is not divisible by line (%u) * assoc "
                  "(%u)",
                  cfg.cache.sizeBytes, cfg.cache.lineBytes,
                  cfg.cache.assoc);
        if (cfg.cache.ports == 0)
            fatal("config: cache_ports=0 — the datapath needs at "
                  "least one cache port");
        if (cfg.cache.mshrs == 0)
            fatal("config: cache_mshrs=0 — a non-blocking cache "
                  "needs at least one MSHR");
        if (cfg.tlbEntries == 0)
            fatal("config: tlb_entries=0 — the accelerator TLB needs "
                  "at least one entry");
    }

    for (unsigned i = 0; i < numFaultSites; ++i) {
        double r = cfg.faults.rates[i];
        if (r < 0.0 || r > 1.0)
            fatal("config: fault_%s=%g — injection rates are "
                  "probabilities in [0, 1]",
                  faultSiteName(static_cast<FaultSite>(i)), r);
    }
    if (cfg.faults.anyEnabled() && cfg.faults.maxRetries == 0)
        fatal("config: fault_max_retries=0 with nonzero fault rates "
              "— a single injected error would instantly fail the "
              "run; use at least 1");

    // Genie-Iface: completion mode, ACP regime, command queue.
    if (cfg.memType == MemInterface::Cache &&
        cfg.iface.memType == IfaceMemType::Acp)
        fatal("config: mem_type=acp contradicts mem=cache — the ACP "
              "fills scratchpads coherently; pick mem_type=acp (a "
              "scratchpad regime) or mem=cache, not both");
    if (cfg.memType == MemInterface::Cache &&
        !cfg.iface.arrayMemTypes.empty())
        fatal("config: per-array mem_type.<array> overrides apply to "
              "scratchpad arrays only — a cache-mode accelerator has "
              "no per-array data movement to select; drop the "
              "overrides or use mem=dma");
    if (cfg.iface.invocations == 0)
        fatal("config: invocations=0 — a run must invoke the kernel "
              "at least once (invocations=1 is the paper baseline)");
    if (cfg.iface.queueDepth > 0 &&
        cfg.iface.invocations > cfg.iface.queueDepth)
        fatal("config: invocations=%u exceeds queue_depth=%u — the "
              "driver enqueues the whole batch before its single "
              "ioctl, so the ring must hold every invocation; deepen "
              "queue_depth or lower invocations",
              cfg.iface.invocations, cfg.iface.queueDepth);
    if (cfg.iface.completion == CompletionMode::Interrupt &&
        cfg.iface.irqLatency == 0)
        fatal("config: irq_latency_ns=0 with completion=interrupt — "
              "a zero-latency interrupt would beat the spin path for "
              "free; model at least 1 ns of delivery latency");
}

Cycles
ValidationModel::barrierCriticalPathCycles(const Trace &trace,
                                           const Dddg &dddg,
                                           unsigned lanes)
{
    std::vector<std::uint64_t> depth(dddg.numNodes(), 0);
    std::uint64_t waveStart = 0;
    std::uint64_t waveEnd = 0;
    std::uint32_t currentWave = 0;
    for (NodeId i = 0; i < dddg.numNodes(); ++i) {
        std::uint32_t w = trace.ops[i].iteration / lanes;
        if (w != currentWave) {
            // All of the previous wave completes before this starts.
            currentWave = w;
            waveStart = waveEnd;
        }
        std::uint64_t begin = std::max(depth[i], waveStart);
        std::uint64_t finish = begin + latencyOf(trace.ops[i].op);
        waveEnd = std::max(waveEnd, finish);
        for (NodeId c : dddg.children(i))
            depth[c] = std::max(depth[c], finish);
    }
    return waveEnd;
}

Cycles
ValidationModel::computeBound(const SocConfig &cfg, const Trace &trace,
                              const Dddg &dddg)
{
    // Per-wave schedule bound: each wave of `lanes` iterations runs
    // to the *larger* of its internal critical path (dependences) and
    // its resource requirement (FU issue widths, scratchpad partition
    // bandwidth), then the barrier releases the next wave.
    Datapath::Params dp; // default per-lane issue widths
    const std::array<std::uint64_t, 6> perLane = {
        dp.intAluPerLane, dp.intMulPerLane, dp.fpAddPerLane,
        dp.fpMulPerLane, 1 /*div issues once per latency*/,
        dp.otherPerLane};

    std::vector<std::uint64_t> partitions(trace.arrays.size(), 1);
    for (std::size_t i = 0; i < trace.arrays.size(); ++i) {
        partitions[i] = effectiveSpadPartitions(
            trace.arrays[i].sizeBytes, trace.arrays[i].wordBytes,
            cfg.spadPartitions);
    }

    std::vector<std::uint64_t> depth(dddg.numNodes(), 0);
    // Per-lane FU/memory-issue counts: an iteration's work binds its
    // own lane's units (e.g. a chain of divides), not the aggregate.
    std::vector<std::array<std::uint64_t, 6>> laneClassOps(cfg.lanes);
    std::vector<std::uint64_t> laneMemOps(cfg.lanes, 0);
    std::vector<std::uint64_t> arrayOps(trace.arrays.size(), 0);

    std::uint64_t waveStart = 0;
    std::uint64_t waveCritEnd = 0;
    std::uint32_t currentWave = 0;

    auto waveResource = [&] {
        std::uint64_t r = 0;
        for (unsigned l = 0; l < cfg.lanes; ++l) {
            for (std::size_t k = 0; k < 6; ++k) {
                std::uint64_t need = laneClassOps[l][k];
                if (k == static_cast<std::size_t>(FuKind::FpDiv))
                    need *= latencyOf(Opcode::FpDiv);
                r = std::max(r, divCeil(need, perLane[k]));
            }
            r = std::max(r, divCeil(laneMemOps[l],
                                    dp.memOpsPerLane));
        }
        for (std::size_t i = 0; i < trace.arrays.size(); ++i)
            r = std::max(r, divCeil(arrayOps[i], partitions[i]));
        return r;
    };

    auto closeWave = [&] {
        std::uint64_t span =
            std::max(waveCritEnd - waveStart, waveResource());
        waveStart += span;
        waveCritEnd = waveStart;
        for (auto &c : laneClassOps)
            c = {};
        std::fill(laneMemOps.begin(), laneMemOps.end(), 0);
        std::fill(arrayOps.begin(), arrayOps.end(), 0);
    };

    for (NodeId i = 0; i < dddg.numNodes(); ++i) {
        const TraceOp &op = trace.ops[i];
        std::uint32_t w = op.iteration / cfg.lanes;
        unsigned lane = op.iteration % cfg.lanes;
        if (w != currentWave) {
            closeWave();
            currentWave = w;
        }
        if (isMemoryOp(op.op)) {
            ++arrayOps[static_cast<std::size_t>(op.arrayId)];
            ++laneMemOps[lane];
        } else {
            ++laneClassOps[lane][static_cast<std::size_t>(
                fuKindOf(op.op))];
        }
        std::uint64_t begin = std::max(depth[i], waveStart);
        std::uint64_t finish = begin + latencyOf(op.op);
        waveCritEnd = std::max(waveCritEnd, finish);
        for (NodeId c : dddg.children(i))
            depth[c] = std::max(depth[c], finish);
    }
    closeWave();
    return waveStart;
}

Tick
ValidationModel::dmaTransferTime(const SocConfig &cfg,
                                 std::uint64_t bytes, unsigned segments)
{
    if (bytes == 0)
        return 0;
    Tick busPeriod = periodFromMhz(cfg.busMhz);
    std::uint64_t bytesPerCycle = cfg.busWidthBits / 8;

    // Each beat pays a one-cycle bus header on top of its data cycles.
    std::uint64_t beats = divCeil(bytes, 64);
    Tick transfer = (divCeil(bytes, bytesPerCycle) + beats) * busPeriod;

    // Per-transaction setup plus per-descriptor fetch round trips.
    Tick accelPeriod = periodFromMhz(cfg.accelMhz);
    Tick setup = cfg.dma.setupCycles * accelPeriod;
    Tick descriptor = segments * (200 * tickPerNs);

    // Pipeline ramp: first beat's DRAM access is exposed.
    Tick ramp = 70 * tickPerNs;

    return setup + descriptor + transfer + ramp;
}

ValidationPrediction
ValidationModel::predictDmaBaseline(const SocConfig &cfg,
                                    const Trace &trace,
                                    const Dddg &dddg)
{
    ValidationPrediction p;
    std::uint64_t inBytes = trace.totalInputBytes();
    std::uint64_t outBytes = trace.totalOutputBytes();

    unsigned inSegs = 0, outSegs = 0;
    for (const auto &a : trace.arrays) {
        if (a.isInput)
            ++inSegs;
        if (a.isOutput)
            ++outSegs;
    }

    p.invalidate =
        divCeil(outBytes, cfg.cpuLineBytes) * cfg.invalidatePerLine;
    p.flush = divCeil(inBytes, cfg.cpuLineBytes) * cfg.flushPerLine;
    p.dmaIn = dmaTransferTime(cfg, inBytes, inSegs);
    p.compute = computeBound(cfg, trace, dddg) *
                periodFromMhz(cfg.accelMhz);
    p.dmaOut = dmaTransferTime(cfg, outBytes, outSegs);
    p.sync = 350 * tickPerNs; // ioctl entry + spin-notice latency
    return p;
}

} // namespace genie
