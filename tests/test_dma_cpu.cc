/**
 * @file
 * DMA engine, flush-engine, and driver-CPU unit tests: descriptor
 * chains, beat callbacks, serial transaction servicing, per-
 * transaction setup cost, analytic flush/invalidate latencies,
 * chunked flushes, the ioctl registry, and the driver program flow.
 */

#include <gtest/gtest.h>

#include "cpu/driver_cpu.hh"
#include "dma/dma_engine.hh"
#include "dma/flush_model.hh"
#include "mem/bus.hh"
#include "mem/dram.hh"
#include "sim/logging.hh"

namespace genie
{
namespace
{

constexpr Tick period = 10000; // 100 MHz

struct DmaFixture : public ::testing::Test
{
    DmaFixture()
        : bus("bus", eq, ClockDomain(period), SystemBus::Params{}),
          dram("dram", eq, ClockDomain(period), bus, {}),
          dma("dma", eq, ClockDomain(period), bus, DmaEngine::Params{})
    {
        bus.setTarget(&dram);
    }

    EventQueue eq;
    SystemBus bus;
    DramCtrl dram;
    DmaEngine dma;
};

TEST_F(DmaFixture, TransfersAllBytes)
{
    std::uint64_t beatBytes = 0;
    bool done = false;
    dma.startTransaction(
        DmaEngine::Direction::MemToAccel,
        {{0, 0x1000, 0, 4096}},
        [&](int, Addr, unsigned len) { beatBytes += len; },
        [&](bool) { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(beatBytes, 4096u);
    EXPECT_DOUBLE_EQ(dma.bytesTransferred(), 4096.0);
}

TEST_F(DmaFixture, BeatsArriveInOrder)
{
    Addr lastOffset = 0;
    bool first = true;
    dma.startTransaction(
        DmaEngine::Direction::MemToAccel,
        {{0, 0x1000, 0, 1024}},
        [&](int, Addr off, unsigned) {
            if (!first) {
                EXPECT_GT(off, lastOffset);
            }
            lastOffset = off;
            first = false;
        },
        nullptr);
    eq.run();
    EXPECT_EQ(lastOffset, 1024u - 64u);
}

TEST_F(DmaFixture, SetupCostDelaysFirstBeat)
{
    Tick firstBeat = 0;
    dma.startTransaction(
        DmaEngine::Direction::MemToAccel, {{0, 0x1000, 0, 64}},
        [&](int, Addr, unsigned) {
            if (firstBeat == 0)
                firstBeat = eq.curTick();
        },
        nullptr);
    eq.run();
    // 40 engine cycles of setup must pass before any data moves.
    EXPECT_GE(firstBeat, 40 * period);
}

TEST_F(DmaFixture, TransactionsServiceSerially)
{
    std::vector<int> order;
    dma.startTransaction(DmaEngine::Direction::MemToAccel,
                         {{0, 0x1000, 0, 2048}}, nullptr,
                         [&](bool) { order.push_back(1); });
    dma.startTransaction(DmaEngine::Direction::MemToAccel,
                         {{1, 0x8000, 0, 64}}, nullptr,
                         [&](bool) { order.push_back(2); });
    eq.run();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 1);
    EXPECT_EQ(order[1], 2);
    EXPECT_TRUE(dma.idle());
}

TEST_F(DmaFixture, MultiSegmentDescriptorChain)
{
    std::uint64_t perArray[2] = {0, 0};
    dma.startTransaction(
        DmaEngine::Direction::MemToAccel,
        {{0, 0x1000, 0, 256}, {1, 0x2000, 0, 512}},
        [&](int arrayId, Addr, unsigned len) {
            perArray[arrayId] += len;
        },
        nullptr);
    eq.run();
    EXPECT_EQ(perArray[0], 256u);
    EXPECT_EQ(perArray[1], 512u);
    EXPECT_DOUBLE_EQ(dma.stats().get("descriptorFetches"), 2.0);
}

TEST_F(DmaFixture, WritesMoveDataToMemory)
{
    bool done = false;
    dma.startTransaction(DmaEngine::Direction::AccelToMem,
                         {{0, 0x3000, 0, 1024}}, nullptr,
                         [&](bool) { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_GE(dram.stats().get("writes"), 16.0);
}

TEST_F(DmaFixture, EmptySegmentsAreDropped)
{
    bool done = false;
    dma.startTransaction(DmaEngine::Direction::MemToAccel,
                         {{0, 0x1000, 0, 0}}, nullptr,
                         [&](bool) { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_DOUBLE_EQ(dma.bytesTransferred(), 0.0);
}

TEST_F(DmaFixture, BusyIntervalsCoverTransactions)
{
    dma.startTransaction(DmaEngine::Direction::MemToAccel,
                         {{0, 0x1000, 0, 4096}}, nullptr, nullptr);
    eq.run();
    EXPECT_FALSE(dma.busyIntervals().empty());
    EXPECT_GT(dma.busyIntervals().measure(),
              40u * period); // at least the setup time
}

// ---------------------------------------------------------------
// Flush engine.
// ---------------------------------------------------------------

TEST(FlushEngine, LatencyMatchesPerLineCost)
{
    EventQueue eq;
    FlushEngine fe("flush", eq, {});
    EXPECT_EQ(fe.flushLatency(64 * 100), 100 * 84 * tickPerNs);
    EXPECT_EQ(fe.invalidateLatency(64 * 10), 10 * 71 * tickPerNs);

    Tick doneAt = 0;
    fe.startFlush(64 * 100, 64 * 100, nullptr,
                  [&] { doneAt = eq.curTick(); });
    eq.run();
    EXPECT_EQ(doneAt, 100 * 84 * tickPerNs);
}

TEST(FlushEngine, ChunksCompleteIncrementally)
{
    EventQueue eq;
    FlushEngine fe("flush", eq, {});
    std::vector<Tick> chunkTimes;
    fe.startFlush(3 * 4096, 4096,
                  [&](std::size_t) { chunkTimes.push_back(eq.curTick()); },
                  nullptr);
    eq.run();
    ASSERT_EQ(chunkTimes.size(), 3u);
    Tick perPage = 64 * 84 * tickPerNs;
    EXPECT_EQ(chunkTimes[0], perPage);
    EXPECT_EQ(chunkTimes[1], 2 * perPage);
    EXPECT_EQ(chunkTimes[2], 3 * perPage);
}

TEST(FlushEngine, ExplicitChunkSizes)
{
    EventQueue eq;
    FlushEngine fe("flush", eq, {});
    std::vector<std::size_t> seen;
    bool done = false;
    fe.startFlushChunks({4096, 1024, 64},
                        [&](std::size_t c) { seen.push_back(c); },
                        [&] { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(FlushEngine, OperationsSerializeOnTheCpu)
{
    EventQueue eq;
    FlushEngine fe("flush", eq, {});
    Tick invDone = 0, flushDone = 0;
    fe.startInvalidate(64 * 10, [&] { invDone = eq.curTick(); });
    fe.startFlush(64 * 10, 64 * 10, nullptr,
                  [&] { flushDone = eq.curTick(); });
    eq.run();
    EXPECT_EQ(invDone, 10 * 71 * tickPerNs);
    EXPECT_EQ(flushDone, invDone + 10 * 84 * tickPerNs);
    EXPECT_EQ(fe.busyIntervals().measure(), flushDone);
}

TEST(FlushEngine, ZeroBytesCompletesImmediately)
{
    EventQueue eq;
    FlushEngine fe("flush", eq, {});
    bool done = false;
    fe.startFlush(0, 4096, nullptr, [&] { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(eq.curTick(), 0u);
}

// ---------------------------------------------------------------
// ioctl registry + driver CPU.
// ---------------------------------------------------------------

class InstantDevice : public IoctlDevice
{
  public:
    void
    start(std::function<void()> onFinish) override
    {
        ++starts;
        onFinish();
    }
    int starts = 0;
};

TEST(Ioctl, DispatchesByCommand)
{
    IoctlRegistry reg;
    InstantDevice d0, d1;
    reg.registerDevice(0, &d0);
    reg.registerDevice(1, &d1);
    bool done = false;
    reg.ioctl(aladdinFd, 1, [&] { done = true; });
    EXPECT_TRUE(done);
    EXPECT_EQ(d0.starts, 0);
    EXPECT_EQ(d1.starts, 1);
}

TEST(Ioctl, RejectsUnknownFdAndCommand)
{
    IoctlRegistry reg;
    InstantDevice d;
    reg.registerDevice(0, &d);
    EXPECT_THROW(reg.ioctl(123, 0, nullptr), FatalError);
    EXPECT_THROW(reg.ioctl(aladdinFd, 9, nullptr), FatalError);
    EXPECT_THROW(reg.registerDevice(0, &d), FatalError);
}

struct CpuFixture : public ::testing::Test
{
    CpuFixture()
        : flush("flush", eq, {}),
          cpu("cpu", eq, ClockDomain::fromMhz(667), flush, registry,
              DriverCpu::Params{})
    {
        registry.registerDevice(0, &device);
    }

    EventQueue eq;
    FlushEngine flush;
    IoctlRegistry registry;
    InstantDevice device;
    DriverCpu cpu;
};

TEST_F(CpuFixture, RunsProgramInOrder)
{
    std::vector<int> order;
    std::vector<DriverOp> prog;
    DriverOp call;
    call.kind = DriverOp::Kind::Call;
    call.callback = [&] { order.push_back(1); };
    prog.push_back(call);
    DriverOp flushOp;
    flushOp.kind = DriverOp::Kind::FlushRange;
    flushOp.bytes = 64 * 10;
    prog.push_back(flushOp);
    DriverOp call2;
    call2.kind = DriverOp::Kind::Call;
    call2.callback = [&] { order.push_back(2); };
    prog.push_back(call2);

    bool done = false;
    cpu.run(std::move(prog), [&] { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    // The flush cost was charged between the two calls.
    EXPECT_GE(eq.curTick(), 10 * 84 * tickPerNs);
}

TEST_F(CpuFixture, IoctlStartsDeviceAndSpinWaitBlocks)
{
    std::vector<DriverOp> prog;
    DriverOp io;
    io.kind = DriverOp::Kind::Ioctl;
    io.command = 0;
    prog.push_back(io);
    DriverOp wait;
    wait.kind = DriverOp::Kind::SpinWait;
    prog.push_back(wait);

    bool done = false;
    cpu.run(std::move(prog), [&] { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(device.starts, 1);
    // ioctl entry plus spin-notice latency elapsed.
    EXPECT_GT(eq.curTick(), 100 * tickPerNs);
}

TEST_F(CpuFixture, SpinWaitWaitsForLateFlag)
{
    // Device that completes 5 us after being started.
    class SlowDevice : public IoctlDevice
    {
      public:
        explicit SlowDevice(EventQueue &eq) : eq(eq) {}
        void
        start(std::function<void()> onFinish) override
        {
            eq.scheduleIn(5 * tickPerUs, std::move(onFinish));
        }
        EventQueue &eq;
    };

    SlowDevice slow(eq);
    registry.registerDevice(7, &slow);

    std::vector<DriverOp> prog;
    DriverOp io;
    io.kind = DriverOp::Kind::Ioctl;
    io.command = 7;
    prog.push_back(io);
    DriverOp wait;
    wait.kind = DriverOp::Kind::SpinWait;
    prog.push_back(wait);

    bool done = false;
    cpu.run(std::move(prog), [&] { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_GT(eq.curTick(), 5 * tickPerUs);
    EXPECT_GT(cpu.stats().get("spinTicks"), 0.0);
}

/** Holds the completion callback so the device stays busy until the
 * test releases it. */
class HoldingDevice : public IoctlDevice
{
  public:
    void
    start(std::function<void()> onFinish) override
    {
        held = std::move(onFinish);
    }
    std::function<void()> held;
};

TEST(Ioctl, OverlappingStartOfABusyDeviceIsFatal)
{
    IoctlRegistry reg;
    HoldingDevice d;
    reg.registerDevice(0, &d);
    reg.ioctl(aladdinFd, 0, nullptr);
    EXPECT_TRUE(reg.isBusy(0));
    // A second start would clobber the first invocation's completion
    // callback; the registry must refuse loudly.
    EXPECT_THROW(reg.ioctl(aladdinFd, 0, nullptr), FatalError);
    d.held();
    EXPECT_FALSE(reg.isBusy(0));
    // Once the device finished, a new start is legal again.
    reg.ioctl(aladdinFd, 0, nullptr);
    EXPECT_TRUE(reg.isBusy(0));
}

TEST_F(CpuFixture, FlagSetBeforeSpinWaitSkipsTheSpin)
{
    // InstantDevice completes inside the Ioctl op, so the flag is
    // already set when SpinWait executes: it must consume the flag
    // and fall through without charging any spin time.
    std::vector<DriverOp> prog;
    DriverOp io;
    io.kind = DriverOp::Kind::Ioctl;
    io.command = 0;
    prog.push_back(io);
    DriverOp wait;
    wait.kind = DriverOp::Kind::SpinWait;
    prog.push_back(wait);

    bool done = false;
    cpu.run(std::move(prog), [&] { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_DOUBLE_EQ(cpu.stats().get("spinTicks"), 0.0);
}

TEST_F(CpuFixture, BackToBackIoctlSpinWaitPairs)
{
    std::vector<DriverOp> prog;
    for (int i = 0; i < 3; ++i) {
        DriverOp io;
        io.kind = DriverOp::Kind::Ioctl;
        io.command = 0;
        prog.push_back(io);
        DriverOp wait;
        wait.kind = DriverOp::Kind::SpinWait;
        prog.push_back(wait);
    }

    bool done = false;
    cpu.run(std::move(prog), [&] { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    // Each pair starts the device once and consumes exactly one flag
    // write; a leftover flag would let a later SpinWait fall through
    // to a completion that never happened.
    EXPECT_EQ(device.starts, 3);
    EXPECT_DOUBLE_EQ(cpu.stats().get("ioctls"), 3.0);
}

TEST_F(CpuFixture, SpinTicksAccountingIsExact)
{
    // Device that completes a fixed 5 us after being started.
    class SlowDevice : public IoctlDevice
    {
      public:
        explicit SlowDevice(EventQueue &eq) : eq(eq) {}
        void
        start(std::function<void()> onFinish) override
        {
            eq.scheduleIn(5 * tickPerUs, std::move(onFinish));
        }
        EventQueue &eq;
    };

    SlowDevice slow(eq);
    registry.registerDevice(7, &slow);

    std::vector<DriverOp> prog;
    DriverOp io;
    io.kind = DriverOp::Kind::Ioctl;
    io.command = 7;
    prog.push_back(io);
    DriverOp wait;
    wait.kind = DriverOp::Kind::SpinWait;
    prog.push_back(wait);

    cpu.run(std::move(prog), nullptr);
    eq.run();
    // The device was started and the spin began at the same tick
    // (ioctl return), so the spin covers the device's full 5 us plus
    // the coherence notice latency of the flag write — exactly.
    Tick expected = 5 * tickPerUs + 100 * tickPerNs;
    EXPECT_DOUBLE_EQ(cpu.stats().get("spinTicks"),
                     static_cast<double>(expected));
}

TEST_F(CpuFixture, IntrWaitSleepsWithoutSpinning)
{
    std::vector<DriverOp> prog;
    DriverOp io;
    io.kind = DriverOp::Kind::Ioctl;
    io.command = 0;
    prog.push_back(io);
    DriverOp wait;
    wait.kind = DriverOp::Kind::IntrWait;
    prog.push_back(wait);

    // Route completions into a fake interrupt line that delivers
    // 2 us after the post.
    cpu.setCompletionSink([this] {
        eq.scheduleIn(2 * tickPerUs, [this] { cpu.raiseInterrupt(); });
    });

    bool done = false;
    cpu.run(std::move(prog), [&] { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_GE(eq.curTick(), 2 * tickPerUs);
    // A sleeping CPU burns no spin time.
    EXPECT_DOUBLE_EQ(cpu.stats().get("spinTicks"), 0.0);
}

TEST_F(CpuFixture, InterruptBeforeIntrWaitFallsThrough)
{
    // The interrupt can land while the CPU is still between ops; the
    // pending bit must hold it for the next IntrWait.
    std::vector<DriverOp> prog;
    DriverOp io;
    io.kind = DriverOp::Kind::Ioctl;
    io.command = 0;
    prog.push_back(io);
    DriverOp comp;
    comp.kind = DriverOp::Kind::Compute;
    comp.cycles = 1000;
    prog.push_back(comp);
    DriverOp wait;
    wait.kind = DriverOp::Kind::IntrWait;
    prog.push_back(wait);

    cpu.setCompletionSink([this] { cpu.raiseInterrupt(); });

    bool done = false;
    cpu.run(std::move(prog), [&] { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_DOUBLE_EQ(cpu.stats().get("spinTicks"), 0.0);
}

TEST_F(CpuFixture, ComputeAndMfenceChargeCycles)
{
    std::vector<DriverOp> prog;
    DriverOp comp;
    comp.kind = DriverOp::Kind::Compute;
    comp.cycles = 1000;
    prog.push_back(comp);
    DriverOp fence;
    fence.kind = DriverOp::Kind::Mfence;
    prog.push_back(fence);

    bool done = false;
    cpu.run(std::move(prog), [&] { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    // 1000 CPU cycles at 667 MHz is ~1.5 us.
    EXPECT_GE(eq.curTick(), 1000 * periodFromMhz(667));
}

} // namespace
} // namespace genie
