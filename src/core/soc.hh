/**
 * @file
 * The Soc: gem5-Aladdin's integration layer, and this repository's
 * primary contribution module.
 *
 * A Soc instance assembles one complete simulated system for one
 * design point — a platform of driver CPU, flush engine, DMA engine,
 * system bus and DRAM controller, plus one or more Aladdin-style
 * accelerators, each with either a partitioned-scratchpad/DMA memory
 * interface or a coherent cache + TLB — then executes the full
 * software offload flow over each accelerator's workload trace and
 * reports runtime, the flush/DMA/compute breakdown, energy, power,
 * and EDP.
 *
 * The paper's example SoC (Figure 3) carries two accelerators on one
 * bus, and Section IV-A names shared-resource contention as a design
 * consideration. Several accelerators share the platform — the bus,
 * DRAM, DMA engine and the CPU's flushes serialize — and each runs
 * the same flow it runs alone, so contention is measured by the same
 * model as every other figure.
 *
 * Each Soc owns a private EventQueue, so arbitrarily many design
 * points can be simulated concurrently on different threads.
 */

#ifndef GENIE_CORE_SOC_HH
#define GENIE_CORE_SOC_HH

#include <memory>
#include <vector>

#include "accel/datapath.hh"
#include "core/results.hh"
#include "core/soc_config.hh"
#include "cpu/driver_cpu.hh"
#include "dma/dma_engine.hh"
#include "dma/flush_model.hh"
#include "fault/fault_injector.hh"
#include "fault/watchdog.hh"
#include "iface/command_queue.hh"
#include "iface/interrupt_line.hh"
#include "mem/bus.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/full_empty.hh"
#include "mem/scratchpad.hh"
#include "mem/tlb.hh"
#include "metrics/sampler.hh"
#include "sim/stats.hh"

namespace genie
{

class Soc
{
  public:
    /**
     * Build a one-accelerator system for @p config around
     * @p trace/@p dddg. The trace and DDDG must outlive the Soc (they
     * are shared across many design points in sweeps).
     */
    Soc(SocConfig config, const Trace &trace, const Dddg &dddg);

    /**
     * Build @p platform with one accelerator per @p specs entry.
     * Accelerator i owns DRAM slice 0x40000000 + i * 0x10000000 and
     * ioctl command i. With one spec every component name matches the
     * three-argument constructor; with more, accelerator i's
     * components are named "accel<i>.datapath", "accel<i>.iface.acp",
     * "accel<i>.cpu.l1d" and so on. isolated=1 allows one spec only.
     */
    Soc(SocConfig platform, std::vector<AcceleratorSpec> specs);
    ~Soc();

    Soc(const Soc &) = delete;
    Soc &operator=(const Soc &) = delete;

    /** Execute the offload flow to completion and collect results. */
    SocResults run();

    // Component access for tests and detailed studies.
    EventQueue &eventQueue() { return eventq; }
    SystemBus &bus() { return *systemBus; }
    DramCtrl &dram() { return *dramCtrl; }
    DmaEngine &dmaEngine() { return *dma; }
    FlushEngine &flushEngine() { return *flush; }
    DriverCpu &cpu() { return *driver; }
    /** The interrupt line, or null under spin completion. */
    InterruptLine *interruptLine() { return irqLine.get(); }

    /** Accelerator @p i's datapath. */
    Datapath &datapath(std::size_t i = 0);
    /** Accelerator @p i's coherency port (a coherent-mode
     * DmaEngine), or null unless one of its arrays selects ACP. */
    DmaEngine *acpPort(std::size_t i = 0);
    /** Accelerator @p i's command queue, or null when its
     * queue_depth is zero. */
    CommandQueue *commandQueue(std::size_t i = 0);

    /** The event tracer, or null when cfg.tracing.enabled is false. */
    Tracer *tracer() { return eventTracer.get(); }
    const Tracer *tracer() const { return eventTracer.get(); }

    /** Every component's stats, addressable by dotted path. */
    StatRegistry &statRegistry() { return registry; }
    const StatRegistry &statRegistry() const { return registry; }

    /** The time-series sampler, or null when cfg.metrics.samplePeriod
     * is zero. */
    MetricsSampler *sampler() { return metricsSampler.get(); }
    const MetricsSampler *sampler() const
    {
        return metricsSampler.get();
    }

    /** The fault injector, or null when every fault rate is zero. */
    FaultInjector *faultInjector() { return injector.get(); }
    const FaultInjector *faultInjector() const
    {
        return injector.get();
    }

    /** The forward-progress watchdog, or null when
     * cfg.faults.watchdogCycles is zero. */
    Watchdog *watchdog() { return progressWatchdog.get(); }
    const Watchdog *watchdog() const { return progressWatchdog.get(); }

    /** The platform config. The three-argument constructor also uses
     * it as its one accelerator's design. */
    const SocConfig &config() const { return cfg; }

  private:
    struct Accelerator;

    void build(std::vector<AcceleratorSpec> specs);
    void buildAccelerator(Accelerator &a);
    void buildScratchpadSide(Accelerator &a);
    void buildCacheSide(Accelerator &a);

    /** Resolve per-array regimes, build the ACP plan, and (when any
     * array selects ACP) construct the port plus a dirty CPU L1 for
     * it to snoop. */
    void buildAcpSide(Accelerator &a);

    /** A dirty CPU L1 holding @p a's input data, named for @p a. */
    void buildCpuL1(Accelerator &a);

    /** Start flush + input DMA/ACP (called from the driver program). */
    void beginInputPhase(Accelerator &a);
    void onInputPhaseDone(Accelerator &a);

    /** ioctl target: run the datapath per the configured flow. */
    void startAccelerator(Accelerator &a, std::function<void()> onFinish);
    void onDatapathDone(Accelerator &a);

    /** Launch one datapath invocation (queue drains re-enter here). */
    void launchInvocation(Accelerator &a);

    /** Drain output data (DMA and/or ACP), then complete the run. */
    void beginOutputPhase(Accelerator &a);

    /** Device completion: route it to the driver (flag or interrupt). */
    void onDeviceDone(Accelerator &a);

    /** The driver program that offloads to every accelerator. */
    std::vector<DriverOp> driverProgram();

    /** Write the Chrome JSON sink if an output path is configured. */
    void writeTraceOutput();

    /** Write stats/sample exports for every configured metrics path. */
    void writeMetricsOutputs();

    /** Assemble results after the event queue drains. */
    SocResults collect(Tick endTick);
    void computeEnergy(SocResults &r) const;
    RuntimeBreakdown computeBreakdown(Tick endTick) const;

    /** Latency of moving @p bytes line-by-line through the cache. */
    Tick lineCopyLatency(const Accelerator &a,
                         std::uint64_t bytes) const;

    /** Register progress sources + diagnostics on the watchdog. */
    void wireWatchdog();

    SocConfig cfg;

    EventQueue eventq;

    // Observability. Constructed before the components so every
    // emission during build and run is captured; attached to eventq so
    // components reach it without extra plumbing. The registry is
    // declared before the components so it outlives none of them and
    // every constructor can self-register through the event queue.
    StatRegistry registry;
    std::unique_ptr<Tracer> eventTracer;
    std::unique_ptr<MetricsSampler> metricsSampler;

    // Resilience. The injector is constructed (and attached to the
    // event queue) only when a fault rate is nonzero, so a zero-rate
    // campaign is byte-identical to a fault-free run; likewise the
    // watchdog only exists when an interval is configured.
    std::unique_ptr<FaultInjector> injector;
    std::unique_ptr<Watchdog> progressWatchdog;

    // Platform components.
    std::unique_ptr<SystemBus> systemBus;
    std::unique_ptr<DramCtrl> dramCtrl;
    std::unique_ptr<FlushEngine> flush;
    std::unique_ptr<DmaEngine> dma;
    std::unique_ptr<IoctlRegistry> ioctlRegistry;
    std::unique_ptr<DriverCpu> driver;
    // Genie-Iface completion: constructed only under interrupt
    // completion, so a baseline run carries no iface object.
    std::unique_ptr<InterruptLine> irqLine;

    std::vector<std::unique_ptr<Accelerator>> accels;

    // Device completions the driver has not yet returned from a wait
    // for, oldest first (the driver consumes them in order).
    std::vector<Accelerator *> unobserved;
    std::size_t observed = 0;

    bool ran = false;
    Tick flowEndTick = 0;
};

/** One-call convenience API: build, run, and tear down a design. */
SocResults runDesign(const SocConfig &config, const Trace &trace,
                     const Dddg &dddg);

} // namespace genie

#endif // GENIE_CORE_SOC_HH
