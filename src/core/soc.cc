#include "soc.hh"

#include <algorithm>

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

/** The ioctl-visible accelerator device: starting it runs the
 * configured flow on the owning Soc. */
class Soc::AccelDevice : public IoctlDevice
{
  public:
    explicit AccelDevice(Soc &soc) : soc(soc) {}

    void
    start(std::function<void()> onFinish) override
    {
        soc.startAccelerator(std::move(onFinish));
    }

  private:
    Soc &soc;
};

Soc::Soc(SocConfig config, const Trace &trace_, const Dddg &dddg_)
    : cfg(std::move(config)), trace(trace_), dddg(dddg_)
{
    validateSocConfig(cfg);

    // Attach the registry before build() so every component
    // constructor self-registers its stat group.
    eventq.setStatRegistry(&registry);
    if (cfg.tracing.enabled) {
        eventTracer =
            std::make_unique<Tracer>(eventq, cfg.tracing.categories);
        eventq.setTracer(eventTracer.get());
    }
    // The injector must exist before build() so components could in
    // principle consult it at construction; attaching it only when a
    // rate is nonzero keeps zero-rate campaigns byte-identical to
    // fault-free runs.
    if (cfg.faults.anyEnabled()) {
        injector = std::make_unique<FaultInjector>("fault.injector",
                                                   eventq, cfg.faults);
        eventq.setFaultInjector(injector.get());
    }
    build();
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
    wd.addProgressSource("datapath.nodes", [this, stat] {
        return stat(accel->stats(), "nodes");
    });
    if (spad) {
        wd.addProgressSource("spad.accesses", [this, stat] {
            return stat(spad->stats(), "reads") +
                   stat(spad->stats(), "writes");
        });
    }
    if (cacheMem) {
        wd.addProgressSource("cache.accesses", [this, stat] {
            return stat(cacheMem->stats(), "reads") +
                   stat(cacheMem->stats(), "writes");
        });
    }
    if (accelTlb) {
        wd.addProgressSource("tlb.lookups", [this, stat] {
            return stat(accelTlb->stats(), "hits") +
                   stat(accelTlb->stats(), "misses");
        });
    }
    if (acp) {
        wd.addProgressSource("acp.beats", [this, stat] {
            return stat(acp->stats(), "beats");
        });
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
    if (acp) {
        wd.addDiagnostic("acp", [this] {
            return format("%u beats in flight", acp->inFlightBeats());
        });
    }
    if (irqLine) {
        wd.addDiagnostic("irq", [this] {
            return format("%u posts pending delivery",
                          irqLine->pendingDeliveries());
        });
    }
    if (cmdQueue) {
        wd.addDiagnostic("cmdq", [this] {
            return format("%zu descriptors queued", cmdQueue->size());
        });
    }
    if (cacheMem) {
        wd.addDiagnostic("accel.cache", [this] {
            return format("%zu live MSHRs%s",
                          cacheMem->outstandingMisses(),
                          cacheMem->hasOutstanding() ? "" : " (idle)");
        });
    }
    if (cpuL1) {
        wd.addDiagnostic("cpu.l1d", [this] {
            return format("%zu live MSHRs", cpuL1->outstandingMisses());
        });
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
Soc::build()
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

    // Datapath core.
    Datapath::Params dpParams;
    dpParams.lanes = cfg.lanes;
    dpParams.perfectMemory = cfg.perfectMemory;
    auto mode = cfg.memType == MemInterface::ScratchpadDma
                    ? Datapath::MemMode::ScratchpadDma
                    : Datapath::MemMode::Cache;
    accel = std::make_unique<Datapath>("accel.datapath", eventq,
                                       accelClock, trace, dddg,
                                       dpParams, mode);

    // Array address layout: page-aligned, array-major.
    const Addr dramDataBase = 0x40000000;
    Addr nextDram = dramDataBase;
    Addr nextV = 0;
    for (const auto &a : trace.arrays) {
        arrayDramBase.push_back(nextDram);
        arrayVBase.push_back(nextV);
        Addr span = alignUp(a.sizeBytes, cfg.dma.pageBytes);
        nextDram += span;
        nextV += span;
    }

    if (cfg.memType == MemInterface::ScratchpadDma) {
        buildScratchpadSide();
        buildAcpSide();
    } else {
        buildCacheSide();
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
    if (cfg.iface.queueDepth > 0) {
        CommandQueue::Params qp;
        qp.depth = cfg.iface.queueDepth;
        cmdQueue = std::make_unique<CommandQueue>("iface.queue", eventq,
                                                  qp);
    }

    device = std::make_unique<AccelDevice>(*this);
    ioctlRegistry->registerDevice(0, device.get());
}

void
Soc::buildScratchpadSide()
{
    auto accelClock = ClockDomain::fromMhz(cfg.accelMhz);
    spad = std::make_unique<Scratchpad>("accel.spad", eventq,
                                        accelClock);
    feBits = std::make_unique<FullEmptyBits>("accel.readyBits",
                                             cfg.cpuLineBytes);
    // FullEmptyBits is unclocked and never sees the event queue, so
    // register its stats here rather than in its constructor.
    registry.registerGroup(feBits->stats());

    for (const auto &a : trace.arrays) {
        Scratchpad::ArrayConfig sc;
        sc.name = a.name;
        sc.sizeBytes = a.sizeBytes;
        sc.wordBytes = a.wordBytes;
        sc.partitions = effectiveSpadPartitions(
            a.sizeBytes, a.wordBytes, cfg.spadPartitions);
        sc.portsPerPartition = 1;
        spadIds.push_back(spad->addArray(sc));

        int feId = feBits->addArray(a.sizeBytes);
        bool tracked = cfg.dma.triggeredCompute && a.isInput &&
                       !cfg.isolated;
        feIds.push_back(tracked ? feId : -1);
        if (!tracked)
            feBits->fill(feId, 0, a.sizeBytes);
    }

    accel->attachScratchpad(spad.get(), spadIds, feBits.get(), feIds);

    // Transfer order: the driver sends small arrays (coefficient
    // tables, bounds vectors) first so DMA-triggered compute can
    // begin as soon as the first rows of the big arrays arrive.
    for (std::size_t i = 0; i < trace.arrays.size(); ++i) {
        if (trace.arrays[i].isInput)
            inputOrder.push_back(i);
    }
    std::stable_sort(inputOrder.begin(), inputOrder.end(),
                     [this](std::size_t a, std::size_t b) {
                         return trace.arrays[a].sizeBytes <
                                trace.arrays[b].sizeBytes;
                     });

    // Pipelined-DMA page plan: array-major page-sized segments.
    for (std::size_t i : inputOrder) {
        const auto &a = trace.arrays[i];
        for (Addr off = 0; off < a.sizeBytes;
             off += cfg.dma.pageBytes) {
            DmaEngine::Segment seg;
            seg.arrayId = static_cast<int>(i);
            seg.busAddr = arrayDramBase[i] + off;
            seg.arrayOffset = off;
            seg.len = std::min<std::uint64_t>(cfg.dma.pageBytes,
                                              a.sizeBytes - off);
            inputPages.push_back(seg);
        }
    }
}

void
Soc::buildAcpSide()
{
    // Resolve every array's data-movement regime. The all-DMA default
    // leaves the ACP plan empty and the DMA totals equal to the trace
    // totals, so the baseline flow is untouched.
    bool globalAcp = cfg.iface.memType == IfaceMemType::Acp;
    arrayUsesAcp.assign(trace.arrays.size(), globalAcp);
    for (const auto &o : cfg.iface.arrayMemTypes) {
        bool found = false;
        for (std::size_t i = 0; i < trace.arrays.size(); ++i) {
            if (trace.arrays[i].name == o.first) {
                arrayUsesAcp[i] = o.second == IfaceMemType::Acp;
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
        const auto &a = trace.arrays[i];
        AcpPort::Segment seg;
        seg.arrayId = static_cast<int>(i);
        seg.busAddr = arrayDramBase[i];
        seg.arrayOffset = 0;
        seg.len = a.sizeBytes;
        if (a.isInput) {
            if (arrayUsesAcp[i]) {
                acpInBytes += a.sizeBytes;
                acpInputSegs.push_back(seg);
            } else {
                dmaInBytes += a.sizeBytes;
            }
        }
        if (a.isOutput) {
            if (arrayUsesAcp[i]) {
                acpOutBytes += a.sizeBytes;
                acpOutputSegs.push_back(seg);
            } else {
                dmaOutBytes += a.sizeBytes;
            }
        }
    }

    if (acpInBytes == 0 && acpOutBytes == 0)
        return;

    // ACP-moved arrays never ride the pipelined flush+DMA page plan.
    inputPages.erase(
        std::remove_if(inputPages.begin(), inputPages.end(),
                       [this](const DmaEngine::Segment &p) {
                           return arrayUsesAcp[p.arrayId];
                       }),
        inputPages.end());

    if (cfg.isolated)
        return;

    auto accelClock = ClockDomain::fromMhz(cfg.accelMhz);
    AcpPort::Params ap;
    ap.beatBytes = cfg.cpuLineBytes;
    ap.maxOutstanding = cfg.dma.maxOutstanding;
    acp = std::make_unique<AcpPort>("iface.acp", eventq, accelClock,
                                    *systemBus, ap);

    // The CPU produced the input data and — the whole point of the
    // ACP — never flushed it: its L1 holds the lines dirty, and the
    // port's coherent loads snoop them out cache-to-cache.
    if (cfg.cpuHoldsDirtyInput) {
        auto cpuClock = ClockDomain::fromMhz(cfg.cpuMhz);
        Cache::Params l1p;
        l1p.sizeBytes = cfg.cpuCacheBytes;
        l1p.lineBytes = cfg.cpuLineBytes;
        l1p.assoc = 4;
        l1p.ports = 1;
        cpuL1 = std::make_unique<Cache>("cpu.l1d", eventq, cpuClock,
                                        *systemBus, l1p);
        for (std::size_t i = 0; i < trace.arrays.size(); ++i) {
            const auto &a = trace.arrays[i];
            if (!a.isInput || !arrayUsesAcp[i])
                continue;
            cpuL1->prefill(arrayDramBase[i], a.sizeBytes,
                           /*dirty=*/true);
        }
    }
}

void
Soc::buildCacheSide()
{
    auto accelClock = ClockDomain::fromMhz(cfg.accelMhz);

    Cache::Params cp;
    cp.sizeBytes = cfg.cache.sizeBytes;
    cp.lineBytes = cfg.cache.lineBytes;
    cp.assoc = cfg.cache.assoc;
    cp.ports = cfg.cache.ports;
    cp.mshrs = cfg.cache.mshrs;
    cp.hitLatency = cfg.cache.hitLatency;
    cp.prefetchEnabled = cfg.cache.prefetch;
    cp.perfect = cfg.perfectMemory;
    cacheMem = std::make_unique<Cache>("accel.cache", eventq,
                                       accelClock, *systemBus, cp);

    AladdinTlb::Params tp;
    tp.entries = cfg.tlbEntries;
    tp.missLatency = cfg.tlbMissLatency;
    accelTlb = std::make_unique<AladdinTlb>("accel.tlb", eventq,
                                            accelClock, tp);

    // Private intermediate data stays in scratchpads (Section IV-D),
    // and small tables are register-promoted (Aladdin's complete
    // partitioning). Promoted *shared* arrays still pay for their
    // data movement: they are pulled through the cache line by line
    // before compute starts (warm-up) and pushed back after it ends
    // (drain) — see startAccelerator. Tiny-footprint kernels like aes
    // thus still pay the TLB-miss-then-cold-miss startup the paper
    // describes (Section V-A).
    auto isLocal = [](const ArrayInfo &a) {
        return a.privateScratch ||
               a.sizeBytes / a.wordBytes <=
                   completePartitionWordLimit;
    };
    for (const auto &a : trace.arrays) {
        if (a.privateScratch ||
            a.sizeBytes / a.wordBytes > completePartitionWordLimit)
            continue;
        if (a.isInput)
            cacheWarmupBytes += a.sizeBytes;
        if (a.isOutput)
            cacheDrainBytes += a.sizeBytes;
    }
    bool anyPrivate = false;
    for (const auto &a : trace.arrays)
        anyPrivate = anyPrivate || isLocal(a);
    if (anyPrivate) {
        spad = std::make_unique<Scratchpad>("accel.spad", eventq,
                                            accelClock);
        for (const auto &a : trace.arrays) {
            if (!isLocal(a)) {
                spadIds.push_back(-1);
                continue;
            }
            Scratchpad::ArrayConfig sc;
            sc.name = a.name;
            sc.sizeBytes = a.sizeBytes;
            sc.wordBytes = a.wordBytes;
            sc.partitions = effectiveSpadPartitions(
                a.sizeBytes, a.wordBytes, cfg.spadPartitions);
            sc.portsPerPartition = 1;
            spadIds.push_back(spad->addArray(sc));
        }
    } else {
        spadIds.assign(trace.arrays.size(), -1);
    }

    accel->attachCache(cacheMem.get(), accelTlb.get(), arrayVBase,
                       spad.get(), spadIds);

    // The CPU produced the input data: its L1 holds the most recently
    // written lines dirty, and the accelerator's misses snoop them.
    if (cfg.cpuHoldsDirtyInput && !cfg.isolated) {
        auto cpuClock = ClockDomain::fromMhz(cfg.cpuMhz);
        Cache::Params l1p;
        l1p.sizeBytes = cfg.cpuCacheBytes;
        l1p.lineBytes = cfg.cpuLineBytes;
        l1p.assoc = 4;
        l1p.ports = 1;
        cpuL1 = std::make_unique<Cache>("cpu.l1d", eventq, cpuClock,
                                        *systemBus, l1p);
        for (std::size_t i = 0; i < trace.arrays.size(); ++i) {
            const auto &a = trace.arrays[i];
            if (!a.isInput || a.privateScratch)
                continue;
            // Walk pages in order so physical frames are sequential.
            for (Addr off = 0; off < a.sizeBytes; off += 4096) {
                Addr paddr =
                    accelTlb->translateFunctional(arrayVBase[i] + off);
                std::uint64_t len = std::min<std::uint64_t>(
                    4096, a.sizeBytes - off);
                cpuL1->prefill(paddr, len, /*dirty=*/true);
            }
        }
    }
}

void
Soc::beginInputPhase()
{
    GENIE_ASSERT(cfg.memType == MemInterface::ScratchpadDma,
                 "input phase only exists in DMA mode");

    // Flush/invalidate and the DMA engine move only the DMA-regime
    // bytes; ACP-regime arrays stream in concurrently over the
    // coherency port with no cache-maintenance prerequisite. The
    // all-DMA default makes the ACP part vanish and the DMA part
    // cover the whole trace, reproducing the baseline event-for-event.
    std::uint64_t inBytes = dmaInBytes;
    std::uint64_t outBytes = dmaOutBytes;
    inputPartsPending =
        (inBytes > 0 ? 1u : 0u) + (acpInBytes > 0 ? 1u : 0u);

    auto beat = [this](int arrayId, Addr offset, unsigned len) {
        feBits->fill(arrayId, offset, len);
    };

    if (acpInBytes > 0) {
        acp->startTransaction(
            AcpPort::Direction::MemToAccel, acpInputSegs, beat,
            [this](bool ok) {
                if (!ok)
                    fatal("input ACP burst failed permanently (fault "
                          "retry budget exhausted) — lower "
                          "fault_acp_snoop or raise fault_max_retries");
                if (--inputPartsPending == 0)
                    onInputPhaseDone();
            });
    }

    auto invalidated = [this] {
        outputInvalidated = true;
        if (pendingOutputDma) {
            auto go = std::move(pendingOutputDma);
            pendingOutputDma = nullptr;
            go();
        }
    };

    // The CPU invalidates the output region before the flush in the
    // baseline flow; with pipelined DMA the invalidation is deferred
    // until after the input flush so it overlaps in-flight DMA (it
    // only has to complete before the accelerator's output DMA).
    if (outBytes == 0)
        outputInvalidated = true;
    else if (!cfg.dma.pipelined)
        flush->startInvalidate(outBytes, invalidated);

    if (inBytes == 0) {
        if (outBytes > 0 && cfg.dma.pipelined)
            flush->startInvalidate(outBytes, invalidated);
        if (inputPartsPending == 0) {
            eventq.scheduleFlowIn(0, [this] { onInputPhaseDone(); },
                              "soc.inputDone");
        }
        return;
    }

    if (cfg.dma.pipelined) {
        // One flush chunk and one DMA transaction per page; the DMA of
        // page b may start only once its flush completed, and the
        // engine services pages in order (serial data arrival).
        std::vector<std::uint64_t> chunkSizes;
        chunkSizes.reserve(inputPages.size());
        for (const auto &p : inputPages)
            chunkSizes.push_back(p.len);
        pagesDone = 0;
        std::uint64_t outBytesCopy = outBytes;
        flush->startFlushChunks(
            chunkSizes,
            [this, beat](std::size_t page) {
                dma->startTransaction(
                    DmaEngine::Direction::MemToAccel,
                    {inputPages[page]}, beat, [this](bool ok) {
                        if (!ok)
                            fatal("input DMA page failed permanently "
                                  "(fault retry budget exhausted) — "
                                  "lower fault_dma_beat or raise "
                                  "fault_max_retries");
                        if (++pagesDone == inputPages.size() &&
                            --inputPartsPending == 0)
                            onInputPhaseDone();
                    });
            },
            [this, outBytesCopy, invalidated] {
                if (outBytesCopy > 0)
                    flush->startInvalidate(outBytesCopy, invalidated);
            });
    } else {
        // Baseline: flush everything, then one descriptor chain
        // covering all input arrays (small arrays first).
        flush->startFlush(inBytes, inBytes, nullptr, [this, beat] {
            std::vector<DmaEngine::Segment> segs;
            for (std::size_t i : inputOrder) {
                if (!arrayUsesAcp.empty() && arrayUsesAcp[i])
                    continue;
                const auto &a = trace.arrays[i];
                DmaEngine::Segment seg;
                seg.arrayId = static_cast<int>(i);
                seg.busAddr = arrayDramBase[i];
                seg.arrayOffset = 0;
                seg.len = a.sizeBytes;
                segs.push_back(seg);
            }
            dma->startTransaction(DmaEngine::Direction::MemToAccel,
                                  std::move(segs), beat,
                                  [this](bool ok) {
                                      if (!ok)
                                          fatal("input DMA failed "
                                                "permanently (fault "
                                                "retry budget "
                                                "exhausted)");
                                      if (--inputPartsPending == 0)
                                          onInputPhaseDone();
                                  });
        });
    }
}

void
Soc::onInputPhaseDone()
{
    inputDone = true;
    if (accelStartRequested && !accel->running() &&
        !cfg.dma.triggeredCompute) {
        launchInvocation();
    }
}

Tick
Soc::lineCopyLatency(std::uint64_t bytes) const
{
    if (bytes == 0)
        return 0;
    // One TLB walk up front, then serial line fetches at the DRAM
    // round-trip rate (a register-copy loop has no MLP).
    std::uint64_t lines = divCeil(bytes, cfg.cpuLineBytes);
    return cfg.tlbMissLatency + lines * (250 * tickPerNs);
}

void
Soc::startAccelerator(std::function<void()> onFinish)
{
    pendingFinish = std::move(onFinish);
    accelStartRequested = true;

    if (cfg.memType == MemInterface::Cache && !cfg.isolated) {
        if (invocationsDone == 0) {
            // Pull register-promoted shared inputs through the cache
            // before compute begins (first invocation only; the batch
            // reuses device-resident data).
            eventq.scheduleFlowIn(lineCopyLatency(cacheWarmupBytes),
                              [this] { launchInvocation(); },
                              "soc.cacheWarmup");
            return;
        }
        launchInvocation();
        return;
    }
    if (cfg.memType == MemInterface::Cache || cfg.isolated ||
        cfg.dma.triggeredCompute || inputDone) {
        launchInvocation();
    }
    // Otherwise onInputPhaseDone() will start the datapath.
}

void
Soc::launchInvocation()
{
    // A queued launch retires its ring descriptor; batched
    // invocations enqueued N and ring exactly one doorbell (ioctl).
    if (cmdQueue && !cmdQueue->empty())
        cmdQueue->pop();
    accel->start([this] { onDatapathDone(); });
}

void
Soc::onDatapathDone()
{
    ++invocationsDone;
    if (invocationsDone < cfg.iface.invocations) {
        if (cmdQueue && !cmdQueue->empty()) {
            // Drain the command queue back-to-back: the device moves
            // straight to the next descriptor with no CPU round trip.
            eventq.scheduleFlowIn(0, [this] { launchInvocation(); },
                              "iface.queueNext");
            return;
        }
        // Unqueued batch: complete this ioctl so the driver can issue
        // the next one (one CPU round trip per invocation).
        if (pendingFinish)
            pendingFinish();
        return;
    }
    beginOutputPhase();
}

void
Soc::beginOutputPhase()
{
    if (cfg.memType == MemInterface::ScratchpadDma && !cfg.isolated &&
        (dmaOutBytes > 0 || acpOutBytes > 0)) {
        outputPartsPending =
            (dmaOutBytes > 0 ? 1u : 0u) + (acpOutBytes > 0 ? 1u : 0u);

        // ACP-regime outputs need no prior CPU invalidate: each
        // WriteInvalidate beat drops any cached copy as it lands.
        if (acpOutBytes > 0) {
            acp->startTransaction(
                AcpPort::Direction::AccelToMem, acpOutputSegs, nullptr,
                [this](bool ok) {
                    if (!ok)
                        fatal("output ACP burst failed permanently "
                              "(fault retry budget exhausted) — lower "
                              "fault_acp_snoop or raise "
                              "fault_max_retries");
                    if (--outputPartsPending == 0 && pendingFinish)
                        pendingFinish();
                });
        }
        if (dmaOutBytes == 0)
            return;

        // Stream DMA-regime output arrays back to memory; the output
        // region must have been invalidated from CPU caches first.
        auto startOutput = [this] {
            std::vector<DmaEngine::Segment> segs;
            for (std::size_t i = 0; i < trace.arrays.size(); ++i) {
                const auto &a = trace.arrays[i];
                if (!a.isOutput || arrayUsesAcp[i])
                    continue;
                DmaEngine::Segment seg;
                seg.arrayId = static_cast<int>(i);
                seg.busAddr = arrayDramBase[i];
                seg.arrayOffset = 0;
                seg.len = a.sizeBytes;
                segs.push_back(seg);
            }
            dma->startTransaction(DmaEngine::Direction::AccelToMem,
                                  std::move(segs), nullptr,
                                  [this](bool ok) {
                                      if (!ok)
                                          fatal("output DMA failed "
                                                "permanently (fault "
                                                "retry budget "
                                                "exhausted)");
                                      if (--outputPartsPending == 0 &&
                                          pendingFinish)
                                          pendingFinish();
                                  });
        };
        if (outputInvalidated)
            startOutput();
        else
            pendingOutputDma = startOutput;
        return;
    }
    if (cfg.memType == MemInterface::Cache && !cfg.isolated &&
        cacheDrainBytes > 0) {
        // Push register-promoted shared outputs back via the cache.
        eventq.scheduleFlowIn(lineCopyLatency(cacheDrainBytes),
                              [this] {
            if (pendingFinish)
                pendingFinish();
        }, "soc.cacheDrain");
        return;
    }
    if (pendingFinish)
        pendingFinish();
}

SocResults
Soc::run()
{
    GENIE_ASSERT(!ran, "Soc::run() is one-shot");
    ran = true;

    if (metricsSampler)
        metricsSampler->start();

    bool stalled = false;
    if (cfg.isolated) {
        // Isolated design: the accelerator alone, data preloaded.
        bool done = false;
        accel->start([&] {
            done = true;
            if (progressWatchdog)
                progressWatchdog->disarm();
        });
        if (progressWatchdog)
            progressWatchdog->arm();
        try {
            eventq.run();
        } catch (const SimulationStalledError &) {
            stalled = true;
        }
        GENIE_ASSERT(done || stalled,
                     "isolated datapath did not finish");
        writeTraceOutput();
        writeMetricsOutputs();
        SocResults r = collect(stalled ? eventq.curTick()
                                       : accel->computeBusy().hi());
        r.stalled = stalled;
        return r;
    }

    std::vector<DriverOp> program;
    if (cfg.memType == MemInterface::ScratchpadDma) {
        DriverOp call;
        call.kind = DriverOp::Kind::Call;
        call.callback = [this] { beginInputPhase(); };
        program.push_back(std::move(call));
    }
    const auto waitKind =
        cfg.iface.completion == CompletionMode::Interrupt
            ? DriverOp::Kind::IntrWait
            : DriverOp::Kind::SpinWait;
    if (cmdQueue) {
        // Batched offload: enqueue the whole batch, ring the doorbell
        // once (a single ioctl), and wait for the device to drain the
        // ring back-to-back.
        DriverOp enq;
        enq.kind = DriverOp::Kind::Call;
        enq.callback = [this] {
            for (unsigned i = 0; i < cfg.iface.invocations; ++i)
                cmdQueue->push(0);
        };
        program.push_back(std::move(enq));
        DriverOp ioctlOp;
        ioctlOp.kind = DriverOp::Kind::Ioctl;
        ioctlOp.command = 0;
        program.push_back(std::move(ioctlOp));
        DriverOp wait;
        wait.kind = waitKind;
        program.push_back(std::move(wait));
    } else {
        // One ioctl + wait round trip per invocation (the per-offload
        // initiation cost the command queue exists to amortize).
        for (unsigned i = 0; i < cfg.iface.invocations; ++i) {
            DriverOp ioctlOp;
            ioctlOp.kind = DriverOp::Kind::Ioctl;
            ioctlOp.command = 0;
            program.push_back(std::move(ioctlOp));
            DriverOp wait;
            wait.kind = waitKind;
            program.push_back(std::move(wait));
        }
    }

    bool done = false;
    driver->run(std::move(program), [&] {
        done = true;
        flowEndTick = eventq.curTick();
        // Stop monitoring once the flow completes so the watchdog's
        // self-rescheduling check lets the queue drain (and does not
        // mistake post-flow quiet for a stall).
        if (progressWatchdog)
            progressWatchdog->disarm();
    });
    if (progressWatchdog)
        progressWatchdog->arm();
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
    if (acp)
        d = d.unionWith(acp->busyIntervals());
    const IntervalSet &c = accel->computeBusy();

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

    // Functional units.
    static constexpr FuKind kinds[] = {FuKind::IntAlu, FuKind::IntMul,
                                       FuKind::FpAdd, FuKind::FpMul,
                                       FuKind::FpDiv, FuKind::Other};
    const auto &ops = accel->fuOpCounts();
    for (std::size_t i = 0; i < 6; ++i) {
        dynamic += static_cast<double>(ops[i]) *
                   EnergyModel::opEnergy(kinds[i]);
    }

    double leakMw =
        static_cast<double>(cfg.lanes) * EnergyModel::laneLeakage();

    // Scratchpads: per-array bank sizing.
    if (spad) {
        for (std::size_t i = 0; i < trace.arrays.size(); ++i) {
            if (spadIds[i] < 0)
                continue;
            const auto &sc = spad->arrayConfig(spadIds[i]);
            double bankKb = static_cast<double>(sc.sizeBytes) /
                            sc.partitions / 1024.0;
            double xbar =
                EnergyModel::spadCrossbarEnergy(sc.partitions);
            dynamic +=
                static_cast<double>(spad->arrayReads(spadIds[i])) *
                (EnergyModel::sramAccessEnergy(bankKb, false) + xbar);
            dynamic +=
                static_cast<double>(spad->arrayWrites(spadIds[i])) *
                (EnergyModel::sramAccessEnergy(bankKb, true) + xbar);
            leakMw += EnergyModel::sramLeakage(
                static_cast<double>(sc.sizeBytes) / 1024.0,
                sc.partitions);
        }
    }

    // Accelerator cache + TLB.
    if (cacheMem) {
        double sizeKb = cfg.cache.sizeBytes / 1024.0;
        const StatGroup &cs = cacheMem->stats();
        double reads = cs.get("reads");
        double writesAndFills = cs.get("writes") + cs.get("misses") +
                                cs.get("prefetches");
        dynamic += reads * EnergyModel::cacheAccessEnergy(
                               sizeKb, cfg.cache.assoc,
                               cfg.cache.ports, false);
        dynamic += writesAndFills * EnergyModel::cacheAccessEnergy(
                                        sizeKb, cfg.cache.assoc,
                                        cfg.cache.ports, true);
        leakMw += EnergyModel::cacheLeakage(sizeKb, cfg.cache.assoc,
                                            cfg.cache.ports);
    }
    if (accelTlb) {
        const StatGroup &ts = accelTlb->stats();
        double lookups = ts.get("hits") + ts.get("misses");
        dynamic += lookups * EnergyModel::tlbAccessEnergy(
                                 cfg.tlbEntries);
        dynamic += ts.get("misses") * 20.0; // page table walk
        leakMw += EnergyModel::tlbLeakage(cfg.tlbEntries);
    }

    // DMA path and ready bits.
    if (!cfg.isolated && cfg.memType == MemInterface::ScratchpadDma) {
        dynamic += dma->bytesTransferred() *
                   EnergyModel::dmaPerByteEnergy();
        // ACP beats pay the same per-byte movement energy as DMA
        // beats; what they save is the flush, not the transfer.
        if (acp) {
            dynamic += acp->bytesTransferred() *
                       EnergyModel::dmaPerByteEnergy();
        }
        if (cfg.dma.triggeredCompute && feBits) {
            dynamic += (feBits->fills() + feBits->stalls()) *
                       EnergyModel::readyBitAccessEnergy();
            leakMw += EnergyModel::readyBitLeakage(
                feBits->storageBits());
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
    r.accelCycles = accel->executedCycles();
    r.breakdown = computeBreakdown(endTick);
    r.lanes = cfg.lanes;

    if (cacheMem) {
        r.cacheMissRate = cacheMem->missRate();
        r.localSramBytes = cfg.cache.sizeBytes +
                           (spad ? spad->totalBytes() : 0);
        r.localMemBandwidthBytesPerCycle =
            static_cast<double>(cfg.cache.ports) * 8.0 +
            (spad ? static_cast<double>(
                        spad->peakAccessesPerCycle() * 4)
                  : 0.0);
    }
    if (cfg.memType == MemInterface::ScratchpadDma && spad) {
        r.localSramBytes = spad->totalBytes();
        double bw = 0.0;
        for (std::size_t i = 0; i < trace.arrays.size(); ++i) {
            const auto &sc = spad->arrayConfig(spadIds[i]);
            bw += static_cast<double>(sc.partitions *
                                      sc.portsPerPartition *
                                      sc.wordBytes);
        }
        r.localMemBandwidthBytesPerCycle = bw;
        r.spadConflicts =
            static_cast<std::uint64_t>(spad->conflicts());
    }
    if (accelTlb)
        r.tlbHitRate = accelTlb->hitRate();
    r.dramRowHitRate = dramCtrl->rowHitRate();
    r.busUtilization =
        endTick > 0 ? static_cast<double>(systemBus->busyTicks()) /
                          static_cast<double>(endTick)
                    : 0.0;
    r.dmaBytes = static_cast<std::uint64_t>(dma->bytesTransferred());
    if (acp) {
        // Report all explicit data movement, whichever engine did it.
        r.dmaBytes +=
            static_cast<std::uint64_t>(acp->bytesTransferred());
    }
    r.readyBitStalls =
        static_cast<std::uint64_t>(accel->stats().get("readyBitStalls"));
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
