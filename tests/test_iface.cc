/**
 * @file
 * Genie-Iface tests: the accelerator coherency port (snooping loads,
 * invalidating stores, fault retry), posted-interrupt completion
 * (delivery latency, drop/re-post, exhaustion), the accelerator
 * command queue (FIFO ring, overflow/underflow guards), and the
 * SoC-level contracts the subsystem exists for — flush-free ACP
 * offload, spin-free interrupt completion, and N invocations for one
 * ioctl.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "accel/dddg.hh"
#include "core/soc.hh"
#include "dma/dma_engine.hh"
#include "fault/fault_injector.hh"
#include "iface/command_queue.hh"
#include "iface/interrupt_line.hh"
#include "mem/bus.hh"
#include "mem/cache.hh"
#include "mem/coherence.hh"
#include "mem/dram.hh"
#include "mem/protocol_checker.hh"
#include "sim/logging.hh"
#include "workloads/workload.hh"

namespace genie
{
namespace
{

constexpr Tick period = 10000; // 100 MHz

// ---------------------------------------------------------------
// DmaEngine in coherent (ACP) mode: coherent bursts against bus +
// DRAM (+ optional CPU cache).
// ---------------------------------------------------------------

struct AcpFixture : public ::testing::Test
{
    AcpFixture()
        : bus("bus", eq, ClockDomain(period), SystemBus::Params{}),
          dram("dram", eq, ClockDomain(period), bus, {}),
          acp("acp", eq, ClockDomain(period), bus,
              DmaEngine::Params{.setupCycles = 4, .coherent = true})
    {
        bus.setTarget(&dram);
        bus.enableProtocolChecker();
    }

    /** Attach a snooping CPU cache holding @p len dirty bytes at
     * @p base. */
    Cache &
    dirtyCpuCache(Addr base, std::uint64_t len)
    {
        cpuCache = std::make_unique<Cache>(
            "cpuL1", eq, ClockDomain(period), bus, Cache::Params{});
        cpuCache->setCallback([](std::uint64_t, bool) {});
        cpuCache->prefill(base, len, /*dirty=*/true);
        return *cpuCache;
    }

    void
    inject(FaultSite site, double rate, unsigned maxRetries = 8)
    {
        FaultConfig cfg;
        cfg.seed = 99;
        cfg.rates[static_cast<unsigned>(site)] = rate;
        cfg.maxRetries = maxRetries;
        cfg.backoffCycles = 2;
        injector =
            std::make_unique<FaultInjector>("fault.injector", eq, cfg);
        eq.setFaultInjector(injector.get());
    }

    EventQueue eq;
    SystemBus bus;
    DramCtrl dram;
    DmaEngine acp;
    std::unique_ptr<Cache> cpuCache;
    std::unique_ptr<FaultInjector> injector;
};

TEST_F(AcpFixture, LoadBurstFillsFromDramWhenNothingIsCached)
{
    std::uint64_t beatBytes = 0;
    bool done = false, ok = false;
    acp.startTransaction(
        DmaEngine::Direction::MemToAccel, {{0, 0x1000, 0, 4096}},
        [&](int, Addr, unsigned len) { beatBytes += len; },
        [&](bool okArg) {
            done = true;
            ok = okArg;
        });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_TRUE(ok);
    EXPECT_EQ(beatBytes, 4096u);
    EXPECT_DOUBLE_EQ(acp.bytesTransferred(), 4096.0);
    // No cache anywhere: every beat fills from DRAM, none snoop-hit.
    EXPECT_DOUBLE_EQ(acp.stats().get("memFills"), 64.0);
    EXPECT_DOUBLE_EQ(acp.snoopHits(), 0.0);
    EXPECT_FALSE(acp.busyIntervals().empty());
    EXPECT_TRUE(acp.idle());
    bus.protocolChecker()->checkQuiescent();
}

TEST_F(AcpFixture, DirtyCpuLinesAreSuppliedCacheToCacheWithoutFlush)
{
    Cache &cpu = dirtyCpuCache(0x1000, 512);
    std::uint64_t beatBytes = 0;
    acp.startTransaction(
        DmaEngine::Direction::MemToAccel, {{0, 0x1000, 0, 512}},
        [&](int, Addr, unsigned len) { beatBytes += len; }, nullptr);
    eq.run();
    EXPECT_EQ(beatBytes, 512u);
    // All 8 lines were dirty in the CPU cache: each beat is answered
    // cache-to-cache, no flush ever ran, and the owner keeps its copy
    // in Owned state.
    EXPECT_DOUBLE_EQ(acp.snoopHits(), 8.0);
    EXPECT_DOUBLE_EQ(acp.stats().get("memFills"), 0.0);
    EXPECT_GE(bus.stats().get("cacheToCache"), 8.0);
    EXPECT_EQ(cpu.lineState(0x1000), CoherenceState::Owned);
    bus.protocolChecker()->checkQuiescent();
}

TEST_F(AcpFixture, StoreBurstInvalidatesEveryCachedCopy)
{
    Cache &cpu = dirtyCpuCache(0x2000, 512);
    bool ok = false;
    acp.startTransaction(DmaEngine::Direction::AccelToMem,
                         {{0, 0x2000, 0, 512}}, nullptr,
                         [&](bool okArg) { ok = okArg; });
    eq.run();
    EXPECT_TRUE(ok);
    // The CPU can never read stale data the accelerator overwrote:
    // every cached line of the target range was dropped.
    EXPECT_EQ(cpu.lineState(0x2000), CoherenceState::Invalid);
    EXPECT_EQ(cpu.lineState(0x2000 + 448), CoherenceState::Invalid);
    EXPECT_DOUBLE_EQ(acp.stats().get("writeInvalidations"), 8.0);
    EXPECT_GE(cpu.stats().get("snoopInvalidations"), 8.0);
    bus.protocolChecker()->checkQuiescent();
}

TEST_F(AcpFixture, SetupDelayIsChargedBeforeTheFirstBeat)
{
    bool done = false;
    acp.startTransaction(DmaEngine::Direction::MemToAccel,
                         {{0, 0x100, 0, 64}}, nullptr,
                         [&](bool) { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    // Doorbell-write setup (4 port cycles) precedes the single beat.
    EXPECT_GE(eq.curTick(), 4u * period);
}

TEST_F(AcpFixture, QueuedTransactionsRunInFifoOrder)
{
    std::vector<int> order;
    acp.startTransaction(DmaEngine::Direction::MemToAccel,
                         {{0, 0x0, 0, 128}}, nullptr,
                         [&](bool) { order.push_back(1); });
    acp.startTransaction(DmaEngine::Direction::AccelToMem,
                         {{0, 0x1000, 0, 128}}, nullptr,
                         [&](bool) { order.push_back(2); });
    EXPECT_FALSE(acp.idle());
    eq.run();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 1);
    EXPECT_EQ(order[1], 2);
    EXPECT_TRUE(acp.idle());
    EXPECT_DOUBLE_EQ(acp.stats().get("transactions"), 2.0);
}

TEST_F(AcpFixture, FaultyBeatsRetryAndTheBurstStillCompletes)
{
    inject(FaultSite::AcpSnoop, 0.5);
    std::uint64_t beatBytes = 0;
    bool done = false, ok = false;
    acp.startTransaction(
        DmaEngine::Direction::MemToAccel, {{0, 0x1000, 0, 4096}},
        [&](int, Addr, unsigned len) { beatBytes += len; },
        [&](bool okArg) {
            done = true;
            ok = okArg;
        });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_TRUE(ok);
    EXPECT_EQ(beatBytes, 4096u);
    EXPECT_GT(acp.stats().get("retries"), 0.0);
    EXPECT_DOUBLE_EQ(acp.stats().get("retryExhausted"), 0.0);
    EXPECT_TRUE(acp.idle());
    bus.protocolChecker()->checkQuiescent();
}

TEST_F(AcpFixture, RetryExhaustionFailsTheTransactionAndDrains)
{
    inject(FaultSite::AcpSnoop, 1.0, /*maxRetries=*/2);
    bool done = false, ok = true;
    acp.startTransaction(DmaEngine::Direction::MemToAccel,
                         {{0, 0x1000, 0, 512}}, nullptr,
                         [&](bool okArg) {
                             done = true;
                             ok = okArg;
                         });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_FALSE(ok);
    EXPECT_GE(acp.stats().get("retryExhausted"), 1.0);
    // The port must return to idle so a sweep can continue with the
    // next design point.
    EXPECT_TRUE(acp.idle());
}

// ---------------------------------------------------------------
// InterruptLine: posted completion with a fixed wakeup latency.
// ---------------------------------------------------------------

struct IrqFixture : public ::testing::Test
{
    InterruptLine &
    line(Tick latency)
    {
        InterruptLine::Params p;
        p.deliveryLatency = latency;
        irq = std::make_unique<InterruptLine>(
            "irq", eq, ClockDomain(period), p);
        return *irq;
    }

    void
    inject(double rate, unsigned maxRetries = 8)
    {
        FaultConfig cfg;
        cfg.seed = 99;
        cfg.rates[static_cast<unsigned>(FaultSite::IrqDrop)] = rate;
        cfg.maxRetries = maxRetries;
        cfg.backoffCycles = 2;
        injector =
            std::make_unique<FaultInjector>("fault.injector", eq, cfg);
        eq.setFaultInjector(injector.get());
    }

    EventQueue eq;
    std::unique_ptr<InterruptLine> irq;
    std::unique_ptr<FaultInjector> injector;
};

TEST_F(IrqFixture, DeliveryPaysExactlyTheConfiguredLatency)
{
    InterruptLine &l = line(2 * tickPerUs);
    Tick deliveredAt = 0;
    unsigned calls = 0;
    l.setHandler([&] {
        deliveredAt = eq.curTick();
        ++calls;
    });
    l.post();
    EXPECT_EQ(l.pendingDeliveries(), 1u);
    eq.run();
    EXPECT_EQ(calls, 1u);
    EXPECT_EQ(deliveredAt, 2 * tickPerUs);
    EXPECT_EQ(l.pendingDeliveries(), 0u);
    EXPECT_DOUBLE_EQ(l.stats().get("posts"), 1.0);
    EXPECT_DOUBLE_EQ(l.stats().get("delivered"), 1.0);
    const Distribution *d = l.stats().findDistribution("latencyNs");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->count(), 1u);
    EXPECT_DOUBLE_EQ(d->mean(), 2000.0); // 2 us in ns
}

TEST_F(IrqFixture, EveryPostIsDeliveredOnce)
{
    InterruptLine &l = line(1000 * tickPerNs);
    unsigned calls = 0;
    l.setHandler([&] { ++calls; });
    for (int i = 0; i < 5; ++i)
        l.post();
    eq.run();
    EXPECT_EQ(calls, 5u);
    EXPECT_DOUBLE_EQ(l.stats().get("delivered"), 5.0);
    ASSERT_NE(l.stats().findDistribution("latencyNs"), nullptr);
    EXPECT_EQ(l.stats().findDistribution("latencyNs")->count(), 5u);
}

TEST_F(IrqFixture, DroppedPostsAreRepostedAndStillDelivered)
{
    inject(0.5);
    InterruptLine &l = line(1000 * tickPerNs);
    unsigned calls = 0;
    l.setHandler([&] { ++calls; });
    for (int i = 0; i < 8; ++i)
        l.post();
    eq.run();
    // Drops delay delivery (backoff shows up in the latency
    // distribution) but never lose an interrupt.
    EXPECT_EQ(calls, 8u);
    EXPECT_GT(l.stats().get("dropped"), 0.0);
    EXPECT_DOUBLE_EQ(l.stats().get("delivered"), 8.0);
}

TEST_F(IrqFixture, DropExhaustionIsFatalNotSilent)
{
    inject(1.0, /*maxRetries=*/2);
    InterruptLine &l = line(1000 * tickPerNs);
    l.setHandler([] {});
    l.post();
    // A lost final interrupt would hang the driver forever, so the
    // line declares the run dead instead of swallowing the loss.
    EXPECT_THROW(eq.run(), FatalError);
}

TEST_F(IrqFixture, ZeroDeliveryLatencyIsRejected)
{
    EXPECT_THROW(line(0), FatalError);
}

// ---------------------------------------------------------------
// CommandQueue: the descriptor ring between driver and device.
// ---------------------------------------------------------------

TEST(CommandQueue, DescriptorsDrainInFifoOrder)
{
    EventQueue eq;
    CommandQueue q("cmdq", eq, CommandQueue::Params{4});
    EXPECT_TRUE(q.empty());
    q.push(10);
    q.push(11);
    q.push(12);
    EXPECT_EQ(q.size(), 3u);
    EXPECT_EQ(q.pop(), 10u);
    EXPECT_EQ(q.pop(), 11u);
    EXPECT_EQ(q.pop(), 12u);
    EXPECT_TRUE(q.empty());
    EXPECT_DOUBLE_EQ(q.stats().get("enqueued"), 3.0);
    EXPECT_DOUBLE_EQ(q.stats().get("dequeued"), 3.0);
    // Occupancy is sampled after every push and pop.
    const Distribution *occ = q.stats().findDistribution("occupancy");
    ASSERT_NE(occ, nullptr);
    EXPECT_EQ(occ->count(), 6u);
    EXPECT_DOUBLE_EQ(occ->max(), 3.0);
}

TEST(CommandQueue, OverflowIsFatal)
{
    EventQueue eq;
    CommandQueue q("cmdq", eq, CommandQueue::Params{2});
    q.push(1);
    q.push(2);
    EXPECT_THROW(q.push(3), FatalError);
}

TEST(CommandQueue, PopFromEmptyRingIsFatal)
{
    EventQueue eq;
    CommandQueue q("cmdq", eq, CommandQueue::Params{2});
    EXPECT_THROW(q.pop(), FatalError);
}

TEST(CommandQueue, ZeroDepthIsRejected)
{
    EventQueue eq;
    EXPECT_THROW(CommandQueue("cmdq", eq, CommandQueue::Params{0}),
                 FatalError);
}

// ---------------------------------------------------------------
// SoC-level contracts: the reasons the subsystem exists.
// ---------------------------------------------------------------

struct Prepared
{
    Trace trace;
    Dddg dddg;
    explicit Prepared(const std::string &name)
        : trace(makeWorkload(name)->build().trace), dddg(trace)
    {}
};

const Prepared &
stencil()
{
    static Prepared p("stencil-stencil2d");
    return p;
}

SocConfig
dmaBaseline()
{
    SocConfig cfg;
    cfg.memType = MemInterface::ScratchpadDma;
    cfg.lanes = 4;
    cfg.spadPartitions = 4;
    cfg.dma.pipelined = false;
    cfg.dma.triggeredCompute = false;
    return cfg;
}

TEST(SocIface, DefaultConfigBuildsNoIfaceComponents)
{
    const auto &p = stencil();
    Soc soc(dmaBaseline(), p.trace, p.dddg);
    EXPECT_EQ(soc.acpPort(), nullptr);
    EXPECT_EQ(soc.interruptLine(), nullptr);
    EXPECT_EQ(soc.commandQueue(), nullptr);
}

TEST(SocIface, AcpRegimeEliminatesTheFlushEntirely)
{
    const auto &p = stencil();
    SocResults dma = runDesign(dmaBaseline(), p.trace, p.dddg);
    ASSERT_GT(dma.breakdown.flushOnly, 0u);

    SocConfig cfg = dmaBaseline();
    cfg.iface.memType = IfaceMemType::Acp;
    Soc soc(cfg, p.trace, p.dddg);
    SocResults acp = soc.run();

    // No flush phase at all: dirty CPU lines are snooped
    // cache-to-cache on demand by the coherency port.
    EXPECT_EQ(acp.breakdown.flushOnly, 0u);
    ASSERT_NE(soc.acpPort(), nullptr);
    EXPECT_GT(soc.acpPort()->snoopHits(), 0.0);
    EXPECT_GE(soc.bus().stats().get("cacheToCache"), 1.0);
    // Dropping the serialized flush beats the unpipelined DMA flow.
    EXPECT_LT(acp.totalTicks, dma.totalTicks);
}

TEST(SocIface, PerArrayOverrideMixesDmaAndAcpInOneRun)
{
    const auto &p = stencil();
    std::string inputArray;
    for (const auto &a : p.trace.arrays)
        if (a.isInput) {
            inputArray = a.name;
            break;
        }
    ASSERT_FALSE(inputArray.empty());

    SocConfig cfg = dmaBaseline();
    cfg.iface.arrayMemTypes.emplace_back(inputArray,
                                         IfaceMemType::Acp);
    Soc soc(cfg, p.trace, p.dddg);
    SocResults r = soc.run();

    // The overridden input moves over the ACP; everything else (the
    // output at minimum) still moves over the DMA engine.
    ASSERT_NE(soc.acpPort(), nullptr);
    double acpBytes = soc.acpPort()->bytesTransferred();
    EXPECT_GT(acpBytes, 0.0);
    EXPECT_GT(static_cast<double>(r.dmaBytes), acpBytes);
}

TEST(SocIface, UnknownArrayNameInOverrideIsFatal)
{
    const auto &p = stencil();
    SocConfig cfg = dmaBaseline();
    cfg.iface.arrayMemTypes.emplace_back("no-such-array",
                                         IfaceMemType::Acp);
    EXPECT_THROW(Soc(cfg, p.trace, p.dddg), FatalError);
}

TEST(SocIface, InterruptCompletionSleepsInsteadOfSpinning)
{
    const auto &p = stencil();

    SocConfig spin = dmaBaseline();
    Soc spinSoc(spin, p.trace, p.dddg);
    spinSoc.run();
    double spinTicks = spinSoc.cpu().stats().get("spinTicks");
    ASSERT_GT(spinTicks, 0.0);

    SocConfig intr = dmaBaseline();
    intr.iface.completion = CompletionMode::Interrupt;
    Soc intrSoc(intr, p.trace, p.dddg);
    intrSoc.run();
    // The CPU never burns a polling tick; completion arrives through
    // the interrupt line, whose latency distribution records it.
    EXPECT_DOUBLE_EQ(intrSoc.cpu().stats().get("spinTicks"), 0.0);
    ASSERT_NE(intrSoc.interruptLine(), nullptr);
    const Distribution *lat =
        intrSoc.interruptLine()->stats().findDistribution("latencyNs");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->count(), 1u);
    EXPECT_GT(lat->mean(), 0.0);
}

TEST(SocIface, CommandQueueBatchesNInvocationsIntoOneIoctl)
{
    const auto &p = stencil();

    SocConfig unqueued = dmaBaseline();
    unqueued.iface.invocations = 4;
    Soc uq(unqueued, p.trace, p.dddg);
    SocResults ru = uq.run();
    EXPECT_DOUBLE_EQ(uq.cpu().stats().get("ioctls"), 4.0);

    SocConfig queued = dmaBaseline();
    queued.iface.invocations = 4;
    queued.iface.queueDepth = 4;
    Soc q(queued, p.trace, p.dddg);
    SocResults rq = q.run();
    EXPECT_DOUBLE_EQ(q.cpu().stats().get("ioctls"), 1.0);
    ASSERT_NE(q.commandQueue(), nullptr);
    EXPECT_TRUE(q.commandQueue()->empty());
    EXPECT_DOUBLE_EQ(q.commandQueue()->stats().get("dequeued"), 4.0);

    // Both flows ran all four invocations over the same data.
    EXPECT_EQ(ru.dmaBytes, rq.dmaBytes);
}

} // namespace
} // namespace genie
