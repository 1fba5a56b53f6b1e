#include "soc.hh"

#include <algorithm>
#include <string_view>

#include "core/validation.hh"
#include "metrics/export.hh"
#include "power/energy_model.hh"
#include "sim/logging.hh"

namespace genie
{

std::string
SocConfig::describe() const
{
    std::string s = format("%s lanes=%u", memInterfaceName(memType),
                           lanes);
    if (memType == MemInterface::ScratchpadDma) {
        s += format(" part=%u pipe=%d trig=%d", spadPartitions,
                    dma.pipelined ? 1 : 0,
                    dma.triggeredCompute ? 1 : 0);
    } else {
        s += format(" c=%uKB l=%uB w=%u p=%u", cache.sizeBytes / 1024,
                    cache.lineBytes, cache.assoc, cache.ports);
    }
    s += format(" bus=%ub", busWidthBits);
    if (iface.anyAcp())
        s += iface.memType == IfaceMemType::Acp ? " acp" : " acp*";
    if (iface.completion == CompletionMode::Interrupt)
        s += " irq";
    if (iface.queueDepth > 0)
        s += format(" q=%u", iface.queueDepth);
    if (iface.invocations != 1)
        s += format(" n=%u", iface.invocations);
    if (isolated)
        s += " [isolated]";
    return s;
}

/**
 * One accelerator's private slice of the system: its datapath and
 * local memory, its coherency port and command queue, its address
 * layout, transfer plans and flow state. It is also the ioctl device
 * for its command number: starting it runs the configured flow.
 */
struct Soc::Accelerator : IoctlDevice
{
    Accelerator(Soc &soc, std::size_t index, std::size_t count,
                AcceleratorSpec spec)
        : soc(soc), index(index),
          prefix(count > 1 ? format("accel%zu.", index) : ""),
          design(std::move(spec.design)), trace(*spec.trace),
          dddg(*spec.dddg)
    {}

    // Callbacks and the ioctl registry hold this object's address.
    Accelerator(const Accelerator &) = delete;
    Accelerator &operator=(const Accelerator &) = delete;

    void
    start(std::function<void()> onFinish) override
    {
        soc.startAccelerator(*this, std::move(onFinish));
    }

    /** @p base as this accelerator's component name: unchanged when
     * it is the Soc's only accelerator, else under "accel<i>."
     * ("accel.spad" -> "accel1.spad", "iface.acp" ->
     * "accel1.iface.acp"). */
    std::string
    name(const char *base) const
    {
        if (prefix.empty())
            return base;
        std::string_view b(base);
        if (b.starts_with("accel."))
            b.remove_prefix(6);
        return prefix + std::string(b);
    }

    Soc &soc;
    const std::size_t index;
    const std::string prefix;
    const SocConfig design;
    const Trace &trace;
    const Dddg &dddg;

    // SoC interface (Genie-Iface). Each component is constructed
    // only when its knob is non-default, so a baseline run carries
    // no iface object and stays byte-identical to a pre-iface build.
    std::unique_ptr<CommandQueue> cmdQueue;
    std::unique_ptr<DmaEngine> acp; ///< coherent mode

    // Accelerator-local memory system.
    std::unique_ptr<Scratchpad> spad;
    std::unique_ptr<FullEmptyBits> feBits;
    std::unique_ptr<Cache> cacheMem;
    std::unique_ptr<Cache> cpuL1;
    std::unique_ptr<AladdinTlb> accelTlb;
    std::unique_ptr<Datapath> datapath;

    // Address layout.
    std::vector<Addr> arrayDramBase; ///< DMA-side physical homes
    std::vector<Addr> arrayVBase;    ///< cache-side virtual bases
    std::vector<int> spadIds;        ///< trace array -> spad array
    std::vector<int> feIds;          ///< trace array -> ready-bit array

    // Pipelined-DMA page plan.
    std::vector<DmaEngine::Segment> inputPages;
    std::size_t pagesDone = 0;

    // Per-array regime plan (scratchpad side): which arrays move
    // over the ACP instead of the flush+DMA path, and the byte
    // totals of each partition. All-DMA defaults leave the ACP
    // vectors empty and the dma totals equal to the trace totals.
    std::vector<bool> arrayUsesAcp;
    std::vector<DmaEngine::Segment> acpInputSegs;
    std::vector<DmaEngine::Segment> acpOutputSegs;
    std::uint64_t dmaInBytes = 0;
    std::uint64_t dmaOutBytes = 0;
    std::uint64_t acpInBytes = 0;
    std::uint64_t acpOutBytes = 0;

    // Cache-mode transfer of register-promoted shared arrays: pulled
    // through the cache before compute, pushed back after.
    std::uint64_t cacheWarmupBytes = 0;
    std::uint64_t cacheDrainBytes = 0;

    // Flow state.
    std::vector<std::size_t> inputOrder;
    bool inputDone = false;
    bool accelStartRequested = false;
    bool outputInvalidated = false;
    std::function<void()> pendingOutputDma;
    std::function<void()> pendingFinish;

    // Multi-invocation flow (Genie-Iface): completed datapath runs
    // this flow, and input/output partitions still in flight when
    // DMA- and ACP-moved arrays drain concurrently.
    unsigned invocationsDone = 0;
    unsigned inputPartsPending = 0;
    unsigned outputPartsPending = 0;

    /** When the driver returned from the wait that saw this
     * accelerator's latest completion. */
    Tick finishTick = 0;
};

Soc::Soc(SocConfig config, const Trace &trace, const Dddg &dddg)
    : Soc(config, {AcceleratorSpec{&trace, &dddg, config}})
{}

Soc::Soc(SocConfig platform, std::vector<AcceleratorSpec> specs)
    : cfg(std::move(platform))
{
    if (specs.empty())
        fatal("a Soc needs at least one accelerator");
    validateSocConfig(cfg);
    for (const auto &spec : specs) {
        if (spec.trace == nullptr || spec.dddg == nullptr)
            fatal("accelerator spec has no trace or DDDG");
        validateSocConfig(spec.design);
        cfg.isolated = cfg.isolated || spec.design.isolated;
    }
    if (cfg.isolated && specs.size() > 1)
        fatal("isolated=1 runs one accelerator alone, but this Soc "
              "has %zu — drop isolated or pass one accelerator spec",
              specs.size());

    // Attach the registry before building so every component
    // constructor self-registers its stat group.
    eventq.setStatRegistry(&registry);
    if (cfg.tracing.enabled) {
        eventTracer =
            std::make_unique<Tracer>(eventq, cfg.tracing.categories);
        eventq.setTracer(eventTracer.get());
    }
    // The injector must exist before building so components could in
    // principle consult it at construction; attaching it only when a
    // rate is nonzero keeps zero-rate campaigns byte-identical to
    // fault-free runs.
    if (cfg.faults.anyEnabled()) {
        injector = std::make_unique<FaultInjector>("fault.injector",
                                                   eventq, cfg.faults);
        eventq.setFaultInjector(injector.get());
    }
    build(std::move(specs));
    if (cfg.faults.watchdogCycles > 0) {
        Watchdog::Params wp;
        wp.interval = cfg.faults.watchdogCycles *
                      ClockDomain::fromMhz(cfg.accelMhz).period();
        progressWatchdog = std::make_unique<Watchdog>(
            "fault.watchdog", eventq, wp);
        wireWatchdog();
    }
    if (cfg.metrics.samplePeriod > 0) {
        MetricsSampler::Params sp;
        sp.period = cfg.metrics.samplePeriod *
                    ClockDomain::fromMhz(cfg.accelMhz).period();
        sp.capacity = cfg.metrics.sampleCapacity;
        metricsSampler = std::make_unique<MetricsSampler>(
            eventq, registry, sp);
        metricsSampler->trackAllScalars();
    }
}

Soc::~Soc() = default;

Datapath &
Soc::datapath(std::size_t i)
{
    return *accels.at(i)->datapath;
}

DmaEngine *
Soc::acpPort(std::size_t i)
{
    return accels.at(i)->acp.get();
}

CommandQueue *
Soc::commandQueue(std::size_t i)
{
    return accels.at(i)->cmdQueue.get();
}

void
Soc::wireWatchdog()
{
    Watchdog &wd = *progressWatchdog;

    // Progress = any counter that advances while the system does real
    // work, across every phase of the flow: flush/invalidate lines,
    // bus packets, DRAM services, DMA beats, committed datapath nodes
    // and completed driver ops. Spin-wait ticks are deliberately NOT
    // progress — a driver polling a completion flag that never comes
    // is exactly the wedge the watchdog exists to catch.
    auto stat = [](const StatGroup &g, const char *name) {
        return static_cast<std::uint64_t>(g.get(name));
    };
    wd.addProgressSource("bus.packets", [this, stat] {
        return stat(systemBus->stats(), "packets");
    });
    wd.addProgressSource("dram.services", [this, stat] {
        return stat(dramCtrl->stats(), "reads") +
               stat(dramCtrl->stats(), "writes");
    });
    wd.addProgressSource("flush.lines", [this, stat] {
        return stat(flush->stats(), "linesFlushed") +
               stat(flush->stats(), "linesInvalidated");
    });
    wd.addProgressSource("dma.beats", [this, stat] {
        return stat(dma->stats(), "beats");
    });
    wd.addProgressSource("cpu.ops", [this, stat] {
        return stat(driver->stats(), "ops");
    });
    for (const auto &ap : accels) {
        const Accelerator &a = *ap;
        wd.addProgressSource(a.name("datapath.nodes"), [&a, stat] {
            return stat(a.datapath->stats(), "nodes");
        });
        if (a.spad) {
            wd.addProgressSource(a.name("spad.accesses"), [&a, stat] {
                return stat(a.spad->stats(), "reads") +
                       stat(a.spad->stats(), "writes");
            });
        }
        if (a.cacheMem) {
            wd.addProgressSource(a.name("cache.accesses"), [&a, stat] {
                return stat(a.cacheMem->stats(), "reads") +
                       stat(a.cacheMem->stats(), "writes");
            });
        }
        if (a.accelTlb) {
            wd.addProgressSource(a.name("tlb.lookups"), [&a, stat] {
                return stat(a.accelTlb->stats(), "hits") +
                       stat(a.accelTlb->stats(), "misses");
            });
        }
        if (a.acp) {
            wd.addProgressSource(a.name("acp.beats"), [&a, stat] {
                return stat(a.acp->stats(), "beats");
            });
        }
    }
    if (irqLine) {
        wd.addProgressSource("irq.delivered", [this, stat] {
            return stat(irqLine->stats(), "delivered");
        });
    }

    // Diagnostics rendered into the stall dump.
    wd.addDiagnostic("dma", [this] {
        return format("%u beats in flight", dma->inFlightBeats());
    });
    for (const auto &ap : accels) {
        const Accelerator &a = *ap;
        if (a.acp) {
            wd.addDiagnostic(a.name("acp"), [&a] {
                return format("%u beats in flight",
                              a.acp->inFlightBeats());
            });
        }
    }
    if (irqLine) {
        wd.addDiagnostic("irq", [this] {
            return format("%u posts pending delivery",
                          irqLine->pendingDeliveries());
        });
    }
    for (const auto &ap : accels) {
        const Accelerator &a = *ap;
        if (a.cmdQueue) {
            wd.addDiagnostic(a.name("cmdq"), [&a] {
                return format("%zu descriptors queued",
                              a.cmdQueue->size());
            });
        }
        if (a.cacheMem) {
            wd.addDiagnostic(a.name("accel.cache"), [&a] {
                return format("%zu live MSHRs%s",
                              a.cacheMem->outstandingMisses(),
                              a.cacheMem->hasOutstanding() ? ""
                                                           : " (idle)");
            });
        }
        if (a.cpuL1) {
            wd.addDiagnostic(a.name("cpu.l1d"), [&a] {
                return format("%zu live MSHRs",
                              a.cpuL1->outstandingMisses());
            });
        }
    }
    if (eventTracer) {
        wd.addDiagnostic("trace", [this] {
            return format("%zu open spans, %zu events recorded",
                          eventTracer->openSpans(),
                          eventTracer->numEvents());
        });
    }
}

void
Soc::build(std::vector<AcceleratorSpec> specs)
{
    auto busClock = ClockDomain::fromMhz(cfg.busMhz);
    auto accelClock = ClockDomain::fromMhz(cfg.accelMhz);
    auto cpuClock = ClockDomain::fromMhz(cfg.cpuMhz);

    SystemBus::Params busParams;
    busParams.widthBits = cfg.busWidthBits;
    busParams.infiniteBandwidth = cfg.infiniteBandwidth;
    systemBus = std::make_unique<SystemBus>("system.bus", eventq,
                                            busClock, busParams);

    DramCtrl::Params dramParams;
    dramCtrl = std::make_unique<DramCtrl>("system.dram", eventq,
                                          busClock, *systemBus,
                                          dramParams);
    systemBus->setTarget(dramCtrl.get());

    FlushEngine::Params flushParams;
    flushParams.flushPerLine = cfg.flushPerLine;
    flushParams.invalidatePerLine = cfg.invalidatePerLine;
    flushParams.lineBytes = cfg.cpuLineBytes;
    flush = std::make_unique<FlushEngine>("cpu.flush", eventq,
                                          flushParams);

    DmaEngine::Params dmaParams;
    dmaParams.beatBytes = cfg.cpuLineBytes;
    dmaParams.maxOutstanding = cfg.dma.maxOutstanding;
    dmaParams.setupCycles = cfg.dma.setupCycles;
    dma = std::make_unique<DmaEngine>("system.dma", eventq, accelClock,
                                      *systemBus, dmaParams);

    ioctlRegistry = std::make_unique<IoctlRegistry>();
    DriverCpu::Params cpuParams;
    driver = std::make_unique<DriverCpu>("system.cpu", eventq, cpuClock,
                                         *flush, *ioctlRegistry,
                                         cpuParams);

    for (std::size_t i = 0; i < specs.size(); ++i) {
        accels.push_back(std::make_unique<Accelerator>(
            *this, i, specs.size(), std::move(specs[i])));
        buildAccelerator(*accels.back());
    }

    // Genie-Iface completion + batching. Both components exist only
    // when selected, so a default config wires nothing here.
    if (cfg.iface.completion == CompletionMode::Interrupt) {
        InterruptLine::Params ip;
        ip.deliveryLatency = cfg.iface.irqLatency;
        irqLine = std::make_unique<InterruptLine>("iface.irq", eventq,
                                                  cpuClock, ip);
        irqLine->setHandler([this] { driver->raiseInterrupt(); });
        driver->setCompletionSink([this] { irqLine->post(); });
    }
    for (const auto &a : accels) {
        if (a->design.iface.queueDepth > 0) {
            CommandQueue::Params qp;
            qp.depth = a->design.iface.queueDepth;
            a->cmdQueue = std::make_unique<CommandQueue>(
                a->name("iface.queue"), eventq, qp);
        }
        ioctlRegistry->registerDevice(
            static_cast<std::uint32_t>(a->index), a.get());
    }
}

void
Soc::buildAccelerator(Accelerator &a)
{
    const SocConfig &d = a.design;

    // Datapath core.
    Datapath::Params dpParams;
    dpParams.lanes = d.lanes;
    dpParams.perfectMemory = d.perfectMemory;
    auto mode = d.memType == MemInterface::ScratchpadDma
                    ? Datapath::MemMode::ScratchpadDma
                    : Datapath::MemMode::Cache;
    a.datapath = std::make_unique<Datapath>(
        a.name("accel.datapath"), eventq,
        ClockDomain::fromMhz(cfg.accelMhz), a.trace, a.dddg, dpParams,
        mode);

    // Array address layout: page-aligned, array-major, in this
    // accelerator's own 256 MB DRAM slice.
    Addr nextDram = 0x40000000 + static_cast<Addr>(a.index) * 0x10000000;
    Addr nextV = 0;
    for (const auto &arr : a.trace.arrays) {
        a.arrayDramBase.push_back(nextDram);
        a.arrayVBase.push_back(nextV);
        Addr span = alignUp(arr.sizeBytes, d.dma.pageBytes);
        nextDram += span;
        nextV += span;
    }

    if (d.memType == MemInterface::ScratchpadDma) {
        buildScratchpadSide(a);
        buildAcpSide(a);
    } else {
        buildCacheSide(a);
    }
}

void
Soc::buildScratchpadSide(Accelerator &a)
{
    const SocConfig &d = a.design;
    const Trace &trace = a.trace;
    a.spad = std::make_unique<Scratchpad>(
        a.name("accel.spad"), eventq, ClockDomain::fromMhz(cfg.accelMhz));
    a.feBits = std::make_unique<FullEmptyBits>(a.name("accel.readyBits"),
                                               cfg.cpuLineBytes);
    // FullEmptyBits is unclocked and never sees the event queue, so
    // register its stats here rather than in its constructor.
    registry.registerGroup(a.feBits->stats());

    for (const auto &arr : trace.arrays) {
        Scratchpad::ArrayConfig sc;
        sc.name = arr.name;
        sc.sizeBytes = arr.sizeBytes;
        sc.wordBytes = arr.wordBytes;
        sc.partitions = effectiveSpadPartitions(
            arr.sizeBytes, arr.wordBytes, d.spadPartitions);
        sc.portsPerPartition = 1;
        a.spadIds.push_back(a.spad->addArray(sc));

        int feId = a.feBits->addArray(arr.sizeBytes);
        bool tracked = d.dma.triggeredCompute && arr.isInput &&
                       !cfg.isolated;
        a.feIds.push_back(tracked ? feId : -1);
        if (!tracked)
            a.feBits->fill(feId, 0, arr.sizeBytes);
    }

    a.datapath->attachScratchpad(a.spad.get(), a.spadIds,
                                 a.feBits.get(), a.feIds);

    // Transfer order: the driver sends small arrays (coefficient
    // tables, bounds vectors) first so DMA-triggered compute can
    // begin as soon as the first rows of the big arrays arrive.
    for (std::size_t i = 0; i < trace.arrays.size(); ++i) {
        if (trace.arrays[i].isInput)
            a.inputOrder.push_back(i);
    }
    std::stable_sort(a.inputOrder.begin(), a.inputOrder.end(),
                     [&trace](std::size_t x, std::size_t y) {
                         return trace.arrays[x].sizeBytes <
                                trace.arrays[y].sizeBytes;
                     });

    // Pipelined-DMA page plan: array-major page-sized segments.
    for (std::size_t i : a.inputOrder) {
        const auto &arr = trace.arrays[i];
        for (Addr off = 0; off < arr.sizeBytes;
             off += d.dma.pageBytes) {
            DmaEngine::Segment seg;
            seg.arrayId = static_cast<int>(i);
            seg.busAddr = a.arrayDramBase[i] + off;
            seg.arrayOffset = off;
            seg.len = std::min<std::uint64_t>(d.dma.pageBytes,
                                              arr.sizeBytes - off);
            a.inputPages.push_back(seg);
        }
    }
}

void
Soc::buildAcpSide(Accelerator &a)
{
    const SocConfig &d = a.design;
    const Trace &trace = a.trace;

    // Resolve every array's data-movement regime. The all-DMA default
    // leaves the ACP plan empty and the DMA totals equal to the trace
    // totals, so the baseline flow is untouched.
    bool globalAcp = d.iface.memType == IfaceMemType::Acp;
    a.arrayUsesAcp.assign(trace.arrays.size(), globalAcp);
    for (const auto &o : d.iface.arrayMemTypes) {
        bool found = false;
        for (std::size_t i = 0; i < trace.arrays.size(); ++i) {
            if (trace.arrays[i].name == o.first) {
                a.arrayUsesAcp[i] = o.second == IfaceMemType::Acp;
                found = true;
                break;
            }
        }
        if (!found)
            fatal("config: mem_type.%s names no array in this "
                  "workload — check the trace's array list for the "
                  "exact name",
                  o.first.c_str());
    }

    for (std::size_t i = 0; i < trace.arrays.size(); ++i) {
        const auto &arr = trace.arrays[i];
        DmaEngine::Segment seg;
        seg.arrayId = static_cast<int>(i);
        seg.busAddr = a.arrayDramBase[i];
        seg.arrayOffset = 0;
        seg.len = arr.sizeBytes;
        if (arr.isInput) {
            if (a.arrayUsesAcp[i]) {
                a.acpInBytes += arr.sizeBytes;
                a.acpInputSegs.push_back(seg);
            } else {
                a.dmaInBytes += arr.sizeBytes;
            }
        }
        if (arr.isOutput) {
            if (a.arrayUsesAcp[i]) {
                a.acpOutBytes += arr.sizeBytes;
                a.acpOutputSegs.push_back(seg);
            } else {
                a.dmaOutBytes += arr.sizeBytes;
            }
        }
    }

    if (a.acpInBytes == 0 && a.acpOutBytes == 0)
        return;

    // ACP-moved arrays never ride the pipelined flush+DMA page plan.
    std::erase_if(a.inputPages, [&a](const DmaEngine::Segment &p) {
        return a.arrayUsesAcp[p.arrayId];
    });

    if (cfg.isolated)
        return;

    DmaEngine::Params ap;
    ap.beatBytes = cfg.cpuLineBytes;
    ap.maxOutstanding = d.dma.maxOutstanding;
    // A doorbell write, not a descriptor-chain walk.
    ap.setupCycles = 4;
    ap.coherent = true;
    a.acp = std::make_unique<DmaEngine>(a.name("iface.acp"), eventq,
                                        ClockDomain::fromMhz(cfg.accelMhz),
                                        *systemBus, ap);

    // The CPU produced the input data and — the whole point of the
    // ACP — never flushed it: its L1 holds the lines dirty, and the
    // port's coherent loads snoop them out cache-to-cache.
    if (d.cpuHoldsDirtyInput) {
        buildCpuL1(a);
        for (std::size_t i = 0; i < trace.arrays.size(); ++i) {
            const auto &arr = trace.arrays[i];
            if (!arr.isInput || !a.arrayUsesAcp[i])
                continue;
            a.cpuL1->prefill(a.arrayDramBase[i], arr.sizeBytes,
                             /*dirty=*/true);
        }
    }
}

void
Soc::buildCpuL1(Accelerator &a)
{
    Cache::Params l1p;
    l1p.sizeBytes = cfg.cpuCacheBytes;
    l1p.lineBytes = cfg.cpuLineBytes;
    l1p.assoc = 4;
    l1p.ports = 1;
    a.cpuL1 = std::make_unique<Cache>(a.name("cpu.l1d"), eventq,
                                      ClockDomain::fromMhz(cfg.cpuMhz),
                                      *systemBus, l1p);
}

void
Soc::buildCacheSide(Accelerator &a)
{
    const SocConfig &d = a.design;
    const Trace &trace = a.trace;
    auto accelClock = ClockDomain::fromMhz(cfg.accelMhz);

    Cache::Params cp;
    cp.sizeBytes = d.cache.sizeBytes;
    cp.lineBytes = d.cache.lineBytes;
    cp.assoc = d.cache.assoc;
    cp.ports = d.cache.ports;
    cp.mshrs = d.cache.mshrs;
    cp.hitLatency = d.cache.hitLatency;
    cp.prefetchEnabled = d.cache.prefetch;
    cp.perfect = d.perfectMemory;
    a.cacheMem = std::make_unique<Cache>(a.name("accel.cache"), eventq,
                                         accelClock, *systemBus, cp);

    AladdinTlb::Params tp;
    tp.entries = d.tlbEntries;
    tp.missLatency = d.tlbMissLatency;
    tp.physBase = 0x10000000 + static_cast<Addr>(a.index) * 0x08000000;
    a.accelTlb = std::make_unique<AladdinTlb>(a.name("accel.tlb"), eventq,
                                              accelClock, tp);

    // Private intermediate data stays in scratchpads (Section IV-D),
    // and small tables are register-promoted (Aladdin's complete
    // partitioning). Promoted *shared* arrays still pay for their
    // data movement: they are pulled through the cache line by line
    // before compute starts (warm-up) and pushed back after it ends
    // (drain) — see startAccelerator. Tiny-footprint kernels like aes
    // thus still pay the TLB-miss-then-cold-miss startup the paper
    // describes (Section V-A).
    auto isLocal = [](const ArrayInfo &arr) {
        return arr.privateScratch ||
               arr.sizeBytes / arr.wordBytes <=
                   completePartitionWordLimit;
    };
    for (const auto &arr : trace.arrays) {
        if (arr.privateScratch ||
            arr.sizeBytes / arr.wordBytes > completePartitionWordLimit)
            continue;
        if (arr.isInput)
            a.cacheWarmupBytes += arr.sizeBytes;
        if (arr.isOutput)
            a.cacheDrainBytes += arr.sizeBytes;
    }
    if (std::any_of(trace.arrays.begin(), trace.arrays.end(), isLocal)) {
        a.spad = std::make_unique<Scratchpad>(a.name("accel.spad"),
                                              eventq, accelClock);
        for (const auto &arr : trace.arrays) {
            if (!isLocal(arr)) {
                a.spadIds.push_back(-1);
                continue;
            }
            Scratchpad::ArrayConfig sc;
            sc.name = arr.name;
            sc.sizeBytes = arr.sizeBytes;
            sc.wordBytes = arr.wordBytes;
            sc.partitions = effectiveSpadPartitions(
                arr.sizeBytes, arr.wordBytes, d.spadPartitions);
            sc.portsPerPartition = 1;
            a.spadIds.push_back(a.spad->addArray(sc));
        }
    } else {
        a.spadIds.assign(trace.arrays.size(), -1);
    }

    a.datapath->attachCache(a.cacheMem.get(), a.accelTlb.get(),
                            a.arrayVBase, a.spad.get(), a.spadIds);

    // The CPU produced the input data: its L1 holds the most recently
    // written lines dirty, and the accelerator's misses snoop them.
    if (d.cpuHoldsDirtyInput && !cfg.isolated) {
        buildCpuL1(a);
        for (std::size_t i = 0; i < trace.arrays.size(); ++i) {
            const auto &arr = trace.arrays[i];
            if (!arr.isInput || arr.privateScratch)
                continue;
            // Walk pages in order so physical frames are sequential.
            for (Addr off = 0; off < arr.sizeBytes; off += 4096) {
                Addr paddr = a.accelTlb->translateFunctional(
                    a.arrayVBase[i] + off);
                std::uint64_t len = std::min<std::uint64_t>(
                    4096, arr.sizeBytes - off);
                a.cpuL1->prefill(paddr, len, /*dirty=*/true);
            }
        }
    }
}

void
Soc::beginInputPhase(Accelerator &a)
{
    GENIE_ASSERT(a.design.memType == MemInterface::ScratchpadDma,
                 "input phase only exists in DMA mode");

    // Flush/invalidate and the DMA engine move only the DMA-regime
    // bytes; ACP-regime arrays stream in concurrently over the
    // coherency port with no cache-maintenance prerequisite. The
    // all-DMA default makes the ACP part vanish and the DMA part
    // cover the whole trace, reproducing the baseline event-for-event.
    std::uint64_t inBytes = a.dmaInBytes;
    std::uint64_t outBytes = a.dmaOutBytes;
    a.inputPartsPending =
        (inBytes > 0 ? 1u : 0u) + (a.acpInBytes > 0 ? 1u : 0u);

    auto beat = [&a](int arrayId, Addr offset, unsigned len) {
        a.feBits->fill(arrayId, offset, len);
    };

    if (a.acpInBytes > 0) {
        a.acp->startTransaction(
            DmaEngine::Direction::MemToAccel, a.acpInputSegs, beat,
            [this, &a](bool ok) {
                if (!ok)
                    fatal("input ACP burst failed permanently (fault "
                          "retry budget exhausted) — lower "
                          "fault_acp_snoop or raise fault_max_retries");
                if (--a.inputPartsPending == 0)
                    onInputPhaseDone(a);
            });
    }

    auto invalidated = [&a] {
        a.outputInvalidated = true;
        if (a.pendingOutputDma) {
            auto go = std::move(a.pendingOutputDma);
            a.pendingOutputDma = nullptr;
            go();
        }
    };

    // The CPU invalidates the output region before the flush in the
    // baseline flow; with pipelined DMA the invalidation is deferred
    // until after the input flush so it overlaps in-flight DMA (it
    // only has to complete before the accelerator's output DMA).
    if (outBytes == 0)
        a.outputInvalidated = true;
    else if (!a.design.dma.pipelined)
        flush->startInvalidate(outBytes, invalidated);

    if (inBytes == 0) {
        if (outBytes > 0 && a.design.dma.pipelined)
            flush->startInvalidate(outBytes, invalidated);
        if (a.inputPartsPending == 0) {
            eventq.scheduleFlowIn(0, [this, &a] { onInputPhaseDone(a); },
                                  "soc.inputDone");
        }
        return;
    }

    if (a.design.dma.pipelined) {
        // One flush chunk and one DMA transaction per page; the DMA of
        // page b may start only once its flush completed, and the
        // engine services pages in order (serial data arrival).
        std::vector<std::uint64_t> chunkSizes;
        chunkSizes.reserve(a.inputPages.size());
        for (const auto &p : a.inputPages)
            chunkSizes.push_back(p.len);
        a.pagesDone = 0;
        flush->startFlushChunks(
            chunkSizes,
            [this, &a, beat](std::size_t page) {
                dma->startTransaction(
                    DmaEngine::Direction::MemToAccel,
                    {a.inputPages[page]}, beat, [this, &a](bool ok) {
                        if (!ok)
                            fatal("input DMA page failed permanently "
                                  "(fault retry budget exhausted) — "
                                  "lower fault_dma_beat or raise "
                                  "fault_max_retries");
                        if (++a.pagesDone == a.inputPages.size() &&
                            --a.inputPartsPending == 0)
                            onInputPhaseDone(a);
                    });
            },
            [this, outBytes, invalidated] {
                if (outBytes > 0)
                    flush->startInvalidate(outBytes, invalidated);
            });
    } else {
        // Baseline: flush everything, then one descriptor chain
        // covering all input arrays (small arrays first).
        flush->startFlush(inBytes, inBytes, nullptr, [this, &a, beat] {
            std::vector<DmaEngine::Segment> segs;
            for (std::size_t i : a.inputOrder) {
                if (a.arrayUsesAcp[i])
                    continue;
                DmaEngine::Segment seg;
                seg.arrayId = static_cast<int>(i);
                seg.busAddr = a.arrayDramBase[i];
                seg.arrayOffset = 0;
                seg.len = a.trace.arrays[i].sizeBytes;
                segs.push_back(seg);
            }
            dma->startTransaction(DmaEngine::Direction::MemToAccel,
                                  std::move(segs), beat,
                                  [this, &a](bool ok) {
                                      if (!ok)
                                          fatal("input DMA failed "
                                                "permanently (fault "
                                                "retry budget "
                                                "exhausted)");
                                      if (--a.inputPartsPending == 0)
                                          onInputPhaseDone(a);
                                  });
        });
    }
}

void
Soc::onInputPhaseDone(Accelerator &a)
{
    a.inputDone = true;
    if (a.accelStartRequested && !a.datapath->running() &&
        !a.design.dma.triggeredCompute) {
        launchInvocation(a);
    }
}

Tick
Soc::lineCopyLatency(const Accelerator &a, std::uint64_t bytes) const
{
    if (bytes == 0)
        return 0;
    // One TLB walk up front, then serial line fetches at the DRAM
    // round-trip rate (a register-copy loop has no MLP).
    std::uint64_t lines = divCeil(bytes, cfg.cpuLineBytes);
    return a.design.tlbMissLatency + lines * (250 * tickPerNs);
}

void
Soc::startAccelerator(Accelerator &a, std::function<void()> onFinish)
{
    a.pendingFinish = std::move(onFinish);
    a.accelStartRequested = true;

    if (a.design.memType == MemInterface::Cache && !cfg.isolated) {
        if (a.invocationsDone == 0) {
            // Pull register-promoted shared inputs through the cache
            // before compute begins (first invocation only; the batch
            // reuses device-resident data).
            eventq.scheduleFlowIn(lineCopyLatency(a, a.cacheWarmupBytes),
                                  [this, &a] { launchInvocation(a); },
                                  "soc.cacheWarmup");
            return;
        }
        launchInvocation(a);
        return;
    }
    if (a.design.memType == MemInterface::Cache || cfg.isolated ||
        a.design.dma.triggeredCompute || a.inputDone) {
        launchInvocation(a);
    }
    // Otherwise onInputPhaseDone() will start the datapath.
}

void
Soc::launchInvocation(Accelerator &a)
{
    // A queued launch retires its ring descriptor; batched
    // invocations enqueued N and ring exactly one doorbell (ioctl).
    if (a.cmdQueue && !a.cmdQueue->empty())
        a.cmdQueue->pop();
    a.datapath->start([this, &a] { onDatapathDone(a); });
}

void
Soc::onDatapathDone(Accelerator &a)
{
    ++a.invocationsDone;
    if (a.invocationsDone < a.design.iface.invocations) {
        if (a.cmdQueue && !a.cmdQueue->empty()) {
            // Drain the command queue back-to-back: the device moves
            // straight to the next descriptor with no CPU round trip.
            eventq.scheduleFlowIn(0, [this, &a] { launchInvocation(a); },
                                  "iface.queueNext");
            return;
        }
        // Unqueued batch: complete this ioctl so the driver can issue
        // the next one (one CPU round trip per invocation).
        onDeviceDone(a);
        return;
    }
    beginOutputPhase(a);
}

void
Soc::beginOutputPhase(Accelerator &a)
{
    if (a.design.memType == MemInterface::ScratchpadDma &&
        !cfg.isolated && (a.dmaOutBytes > 0 || a.acpOutBytes > 0)) {
        a.outputPartsPending = (a.dmaOutBytes > 0 ? 1u : 0u) +
                               (a.acpOutBytes > 0 ? 1u : 0u);

        // ACP-regime outputs need no prior CPU invalidate: each
        // WriteInvalidate beat drops any cached copy as it lands.
        if (a.acpOutBytes > 0) {
            a.acp->startTransaction(
                DmaEngine::Direction::AccelToMem, a.acpOutputSegs, nullptr,
                [this, &a](bool ok) {
                    if (!ok)
                        fatal("output ACP burst failed permanently "
                              "(fault retry budget exhausted) — lower "
                              "fault_acp_snoop or raise "
                              "fault_max_retries");
                    if (--a.outputPartsPending == 0)
                        onDeviceDone(a);
                });
        }
        if (a.dmaOutBytes == 0)
            return;

        // Stream DMA-regime output arrays back to memory; the output
        // region must have been invalidated from CPU caches first.
        auto startOutput = [this, &a] {
            std::vector<DmaEngine::Segment> segs;
            for (std::size_t i = 0; i < a.trace.arrays.size(); ++i) {
                const auto &arr = a.trace.arrays[i];
                if (!arr.isOutput || a.arrayUsesAcp[i])
                    continue;
                DmaEngine::Segment seg;
                seg.arrayId = static_cast<int>(i);
                seg.busAddr = a.arrayDramBase[i];
                seg.arrayOffset = 0;
                seg.len = arr.sizeBytes;
                segs.push_back(seg);
            }
            dma->startTransaction(DmaEngine::Direction::AccelToMem,
                                  std::move(segs), nullptr,
                                  [this, &a](bool ok) {
                                      if (!ok)
                                          fatal("output DMA failed "
                                                "permanently (fault "
                                                "retry budget "
                                                "exhausted)");
                                      if (--a.outputPartsPending == 0)
                                          onDeviceDone(a);
                                  });
        };
        if (a.outputInvalidated)
            startOutput();
        else
            a.pendingOutputDma = startOutput;
        return;
    }
    if (a.design.memType == MemInterface::Cache && !cfg.isolated &&
        a.cacheDrainBytes > 0) {
        // Push register-promoted shared outputs back via the cache.
        eventq.scheduleFlowIn(lineCopyLatency(a, a.cacheDrainBytes),
                              [this, &a] { onDeviceDone(a); },
                              "soc.cacheDrain");
        return;
    }
    onDeviceDone(a);
}

void
Soc::onDeviceDone(Accelerator &a)
{
    if (!a.pendingFinish)
        return;
    unobserved.push_back(&a);
    a.pendingFinish();
}

std::vector<DriverOp>
Soc::driverProgram()
{
    std::vector<DriverOp> program;
    auto add = [&program](DriverOp::Kind kind, std::uint32_t command,
                          std::function<void()> callback) {
        DriverOp op;
        op.kind = kind;
        op.command = command;
        op.callback = std::move(callback);
        program.push_back(std::move(op));
    };

    // Every DMA-mode accelerator's flush + input transfer starts
    // first, in accelerator order; the shared CPU serializes them.
    for (const auto &ap : accels) {
        Accelerator *a = ap.get();
        if (a->design.memType == MemInterface::ScratchpadDma) {
            add(DriverOp::Kind::Call, 0,
                [this, a] { beginInputPhase(*a); });
        }
    }

    // Then rounds of ioctls, one per accelerator still invoking, each
    // followed by one wait per ioctl. A queued accelerator enqueues
    // its whole batch and rings the doorbell once (a single ioctl),
    // then drains the ring back-to-back; an unqueued one pays one
    // ioctl + wait round trip per invocation (the per-offload
    // initiation cost the command queue exists to amortize).
    const auto waitKind =
        cfg.iface.completion == CompletionMode::Interrupt
            ? DriverOp::Kind::IntrWait
            : DriverOp::Kind::SpinWait;
    auto ioctls = [](const Accelerator &a) {
        return a.cmdQueue ? 1u : a.design.iface.invocations;
    };
    unsigned rounds = 0;
    for (const auto &a : accels)
        rounds = std::max(rounds, ioctls(*a));
    for (unsigned round = 0; round < rounds; ++round) {
        unsigned issued = 0;
        for (const auto &ap : accels) {
            Accelerator *a = ap.get();
            if (round >= ioctls(*a))
                continue;
            if (a->cmdQueue) {
                add(DriverOp::Kind::Call, 0, [a] {
                    for (unsigned i = 0; i < a->design.iface.invocations;
                         ++i)
                        a->cmdQueue->push(0);
                });
            }
            add(DriverOp::Kind::Ioctl,
                static_cast<std::uint32_t>(a->index), nullptr);
            ++issued;
        }
        // Each wait consumes one completion; completions reach the
        // driver in the order the devices finished.
        for (unsigned i = 0; i < issued; ++i) {
            add(waitKind, 0, [this] {
                unobserved[observed++]->finishTick = eventq.curTick();
            });
        }
    }
    return program;
}

SocResults
Soc::run()
{
    GENIE_ASSERT(!ran, "Soc::run() is one-shot");
    ran = true;

    if (metricsSampler)
        metricsSampler->start();

    bool done = false;
    auto finished = [&] {
        done = true;
        flowEndTick = eventq.curTick();
        // Stop monitoring once the flow completes so the watchdog's
        // self-rescheduling check lets the queue drain (and does not
        // mistake post-flow quiet for a stall).
        if (progressWatchdog)
            progressWatchdog->disarm();
    };
    if (cfg.isolated) {
        // Isolated design: the accelerator alone, data preloaded.
        accels[0]->datapath->start(finished);
    } else {
        driver->run(driverProgram(), finished);
    }
    if (progressWatchdog)
        progressWatchdog->arm();
    bool stalled = false;
    try {
        eventq.run();
    } catch (const SimulationStalledError &) {
        // The watchdog already dumped its diagnosis via warn();
        // salvage partial stats so the sweep point is not a total
        // loss.
        stalled = true;
        flowEndTick = eventq.curTick();
    }
    GENIE_ASSERT(done || stalled,
                 "offload flow did not finish (deadlock?)");
    writeTraceOutput();
    writeMetricsOutputs();
    if (cfg.isolated && !stalled) {
        flowEndTick = accels[0]->datapath->computeBusy().hi();
        accels[0]->finishTick = flowEndTick;
    }
    SocResults r = collect(flowEndTick);
    r.stalled = stalled;
    return r;
}

void
Soc::writeTraceOutput()
{
    if (eventTracer && !cfg.tracing.outPath.empty())
        eventTracer->writeChromeJsonFile(cfg.tracing.outPath);
}

void
Soc::writeMetricsOutputs()
{
    if (!cfg.metrics.statsJsonPath.empty())
        writeStatsJsonFile(cfg.metrics.statsJsonPath, registry);
    if (!cfg.metrics.statsCsvPath.empty())
        writeStatsCsvFile(cfg.metrics.statsCsvPath, registry);
    if (metricsSampler) {
        if (!cfg.metrics.samplesJsonPath.empty()) {
            writeSamplesJsonFile(cfg.metrics.samplesJsonPath,
                                 *metricsSampler);
        }
        if (!cfg.metrics.samplesCsvPath.empty()) {
            writeSamplesCsvFile(cfg.metrics.samplesCsvPath,
                                *metricsSampler);
        }
    }
}

RuntimeBreakdown
Soc::computeBreakdown(Tick endTick) const
{
    IntervalSet window;
    window.add(0, endTick);

    const IntervalSet &f = flush->busyIntervals();
    // The ACP is a data-movement engine like the DMA, so its busy time
    // lands in the same breakdown bucket.
    IntervalSet d = dma->busyIntervals();
    IntervalSet c = accels[0]->datapath->computeBusy();
    for (std::size_t i = 0; i < accels.size(); ++i) {
        const Accelerator &a = *accels[i];
        if (a.acp)
            d = d.unionWith(a.acp->busyIntervals());
        if (i > 0)
            c = c.unionWith(a.datapath->computeBusy());
    }

    RuntimeBreakdown b;
    b.flushOnly = f.subtract(d).subtract(c).intersectWith(window)
                      .measure();
    b.dmaFlush = d.subtract(c).intersectWith(window).measure();
    b.computeDma = c.intersectWith(d).intersectWith(window).measure();
    b.computeOnly = c.subtract(d).intersectWith(window).measure();
    Tick accounted =
        b.flushOnly + b.dmaFlush + b.computeDma + b.computeOnly;
    b.other = endTick > accounted ? endTick - accounted : 0;
    return b;
}

void
Soc::computeEnergy(SocResults &r) const
{
    double dynamic = 0.0;
    double leakMw = 0.0;

    for (const auto &ap : accels) {
        const Accelerator &a = *ap;
        const SocConfig &d = a.design;

        // Functional units.
        static constexpr FuKind kinds[] = {
            FuKind::IntAlu, FuKind::IntMul, FuKind::FpAdd,
            FuKind::FpMul,  FuKind::FpDiv,  FuKind::Other};
        const auto &ops = a.datapath->fuOpCounts();
        for (std::size_t i = 0; i < 6; ++i) {
            dynamic += static_cast<double>(ops[i]) *
                       EnergyModel::opEnergy(kinds[i]);
        }

        leakMw +=
            static_cast<double>(d.lanes) * EnergyModel::laneLeakage();

        // Scratchpads: per-array bank sizing.
        if (a.spad) {
            for (std::size_t i = 0; i < a.trace.arrays.size(); ++i) {
                if (a.spadIds[i] < 0)
                    continue;
                const auto &sc = a.spad->arrayConfig(a.spadIds[i]);
                double bankKb = static_cast<double>(sc.sizeBytes) /
                                sc.partitions / 1024.0;
                double xbar =
                    EnergyModel::spadCrossbarEnergy(sc.partitions);
                dynamic += static_cast<double>(
                               a.spad->arrayReads(a.spadIds[i])) *
                           (EnergyModel::sramAccessEnergy(bankKb, false) +
                            xbar);
                dynamic += static_cast<double>(
                               a.spad->arrayWrites(a.spadIds[i])) *
                           (EnergyModel::sramAccessEnergy(bankKb, true) +
                            xbar);
                leakMw += EnergyModel::sramLeakage(
                    static_cast<double>(sc.sizeBytes) / 1024.0,
                    sc.partitions);
            }
        }

        // Accelerator cache + TLB.
        if (a.cacheMem) {
            double sizeKb = d.cache.sizeBytes / 1024.0;
            const StatGroup &cs = a.cacheMem->stats();
            double reads = cs.get("reads");
            double writesAndFills = cs.get("writes") + cs.get("misses") +
                                    cs.get("prefetches");
            dynamic += reads * EnergyModel::cacheAccessEnergy(
                                   sizeKb, d.cache.assoc, d.cache.ports,
                                   false);
            dynamic += writesAndFills * EnergyModel::cacheAccessEnergy(
                                            sizeKb, d.cache.assoc,
                                            d.cache.ports, true);
            leakMw += EnergyModel::cacheLeakage(sizeKb, d.cache.assoc,
                                                d.cache.ports);
        }
        if (a.accelTlb) {
            const StatGroup &ts = a.accelTlb->stats();
            double lookups = ts.get("hits") + ts.get("misses");
            dynamic += lookups * EnergyModel::tlbAccessEnergy(
                                     d.tlbEntries);
            dynamic += ts.get("misses") * 20.0; // page table walk
            leakMw += EnergyModel::tlbLeakage(d.tlbEntries);
        }
    }

    // DMA path and ready bits. The shared engine's bytes are counted
    // once; a cache-mode system moves none.
    if (!cfg.isolated) {
        dynamic += dma->bytesTransferred() *
                   EnergyModel::dmaPerByteEnergy();
        for (const auto &ap : accels) {
            const Accelerator &a = *ap;
            // ACP beats pay the same per-byte movement energy as DMA
            // beats; what they save is the flush, not the transfer.
            if (a.acp) {
                dynamic += a.acp->bytesTransferred() *
                           EnergyModel::dmaPerByteEnergy();
            }
            if (a.design.dma.triggeredCompute && a.feBits) {
                dynamic += (a.feBits->fills() + a.feBits->stalls()) *
                           EnergyModel::readyBitAccessEnergy();
                leakMw += EnergyModel::readyBitLeakage(
                    a.feBits->storageBits());
            }
        }
    }

    double seconds = static_cast<double>(r.totalTicks) * 1e-12;
    double leakagePj = leakMw * 1e-3 * seconds * 1e12;

    r.dynamicPj = dynamic;
    r.leakagePj = leakagePj;
    r.energyPj = dynamic + leakagePj;
    r.avgPowerMw =
        seconds > 0 ? r.energyPj * 1e-12 / seconds * 1e3 : 0.0;
    r.edp = r.energyPj * 1e-12 * seconds;
}

SocResults
Soc::collect(Tick endTick)
{
    SocResults r;
    r.totalTicks = endTick;
    r.breakdown = computeBreakdown(endTick);

    // Hit/miss counts pooled over every accelerator's cache and TLB.
    double cacheHits = 0.0, cacheMisses = 0.0;
    double tlbHits = 0.0, tlbMisses = 0.0;
    for (const auto &ap : accels) {
        const Accelerator &a = *ap;
        const SocConfig &d = a.design;
        r.accelCycles += a.datapath->executedCycles();
        r.lanes += d.lanes;
        r.accelerators.push_back(
            {a.finishTick, a.datapath->executedCycles()});

        if (a.cacheMem) {
            cacheHits += a.cacheMem->stats().get("hits");
            cacheMisses += a.cacheMem->stats().get("misses");
            r.localSramBytes += d.cache.sizeBytes +
                                (a.spad ? a.spad->totalBytes() : 0);
            r.localMemBandwidthBytesPerCycle +=
                static_cast<double>(d.cache.ports) * 8.0 +
                (a.spad ? static_cast<double>(
                              a.spad->peakAccessesPerCycle() * 4)
                        : 0.0);
        }
        if (d.memType == MemInterface::ScratchpadDma && a.spad) {
            r.localSramBytes += a.spad->totalBytes();
            double bw = 0.0;
            for (std::size_t i = 0; i < a.trace.arrays.size(); ++i) {
                const auto &sc = a.spad->arrayConfig(a.spadIds[i]);
                bw += static_cast<double>(sc.partitions *
                                          sc.portsPerPartition *
                                          sc.wordBytes);
            }
            r.localMemBandwidthBytesPerCycle += bw;
            r.spadConflicts +=
                static_cast<std::uint64_t>(a.spad->conflicts());
        }
        if (a.accelTlb) {
            tlbHits += a.accelTlb->stats().get("hits");
            tlbMisses += a.accelTlb->stats().get("misses");
        }
        if (a.acp) {
            // Report all explicit data movement, whichever engine did
            // it.
            r.dmaBytes +=
                static_cast<std::uint64_t>(a.acp->bytesTransferred());
        }
        r.readyBitStalls += static_cast<std::uint64_t>(
            a.datapath->stats().get("readyBitStalls"));
    }
    double cacheAccesses = cacheHits + cacheMisses;
    r.cacheMissRate =
        cacheAccesses > 0 ? cacheMisses / cacheAccesses : 0.0;
    double tlbLookups = tlbHits + tlbMisses;
    r.tlbHitRate = tlbLookups > 0 ? tlbHits / tlbLookups : 0.0;
    r.dramRowHitRate = dramCtrl->rowHitRate();
    r.busUtilization =
        endTick > 0 ? static_cast<double>(systemBus->busyTicks()) /
                          static_cast<double>(endTick)
                    : 0.0;
    r.dmaBytes += static_cast<std::uint64_t>(dma->bytesTransferred());
    r.cacheToCacheTransfers = static_cast<std::uint64_t>(
        systemBus->stats().get("cacheToCache"));

    computeEnergy(r);
    return r;
}

SocResults
runDesign(const SocConfig &config, const Trace &trace, const Dddg &dddg)
{
    Soc soc(config, trace, dddg);
    return soc.run();
}

} // namespace genie
