/**
 * @file
 * Multi-accelerator system tests: concurrent accelerators on one bus
 * complete correctly, contention slows each of them relative to
 * running alone, heterogeneous (DMA + cache) pairs coexist, and a
 * wider bus relieves the contention — the paper's shared-resource-
 * contention consideration measured directly.
 *
 * Every system here is built by the one Soc composition path: a
 * single spec must reproduce the three-argument Soc byte for byte,
 * and tests/golden/multi_soc.txt pins the full output of the
 * contention study's systems and a mixed ACP + DMA pair by an FNV-1a
 * hash and length, as tests/golden/event_order.txt does for one
 * accelerator. A mismatch prints the fresh lines; replace the
 * golden's lines with them only for an intentional model change.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "core/config_parse.hh"
#include "core/report.hh"
#include "core/soc.hh"
#include "golden_lines.hh"
#include "iface/interrupt_line.hh"
#include "workloads/workload.hh"

namespace genie
{
namespace
{

struct PreparedPair
{
    Trace traceA, traceB;
    Dddg dddgA, dddgB;

    PreparedPair()
        : traceA(makeWorkload("stencil-stencil2d")->build().trace),
          traceB(makeWorkload("gemm-ncubed")->build().trace),
          dddgA(traceA), dddgB(traceB)
    {}
};

const PreparedPair &
pair()
{
    static PreparedPair p;
    return p;
}

SocConfig
dmaDesign(unsigned lanes)
{
    SocConfig c;
    c.memType = MemInterface::ScratchpadDma;
    c.lanes = lanes;
    c.spadPartitions = lanes;
    c.dma.triggeredCompute = true;
    return c;
}

SocConfig
cacheDesign(unsigned lanes)
{
    SocConfig c;
    c.memType = MemInterface::Cache;
    c.lanes = lanes;
    c.cache.sizeBytes = 16 * 1024;
    c.cache.ports = 2;
    return c;
}

AcceleratorSpec
spec(const Trace &t, const Dddg &d, const SocConfig &cfg)
{
    AcceleratorSpec s;
    s.trace = &t;
    s.dddg = &d;
    s.design = cfg;
    return s;
}

Tick
soloFinish(const Trace &t, const Dddg &d, const SocConfig &cfg,
           unsigned busWidth = 32)
{
    SocConfig platform;
    platform.busWidthBits = busWidth;
    Soc soc(platform, {spec(t, d, cfg)});
    return soc.run().accelerators[0].finishTick;
}

TEST(MultiSoc, SingleAcceleratorCompletes)
{
    const auto &p = pair();
    Tick t = soloFinish(p.traceA, p.dddgA, dmaDesign(4));
    EXPECT_GT(t, 0u);
}

TEST(MultiSoc, TwoDmaAcceleratorsBothComplete)
{
    const auto &p = pair();
    SocConfig platform;
    Soc soc(platform, {spec(p.traceA, p.dddgA, dmaDesign(4)),
                            spec(p.traceB, p.dddgB, dmaDesign(4))});
    auto r = soc.run();
    ASSERT_EQ(r.accelerators.size(), 2u);
    EXPECT_GT(r.accelerators[0].finishTick, 0u);
    EXPECT_GT(r.accelerators[1].finishTick, 0u);
    EXPECT_EQ(r.totalTicks,
              std::max(r.accelerators[0].finishTick,
                       r.accelerators[1].finishTick));
}

TEST(MultiSoc, ContentionSlowsBothAccelerators)
{
    const auto &p = pair();
    Tick aAlone = soloFinish(p.traceA, p.dddgA, dmaDesign(4));
    Tick bAlone = soloFinish(p.traceB, p.dddgB, dmaDesign(4));

    SocConfig platform;
    Soc soc(platform, {spec(p.traceA, p.dddgA, dmaDesign(4)),
                            spec(p.traceB, p.dddgB, dmaDesign(4))});
    auto r = soc.run();
    // The shared CPU flush, DMA engine, and bus serialize: each
    // accelerator must finish no earlier than it does alone, and at
    // least one must be strictly slower.
    EXPECT_GE(r.accelerators[0].finishTick, aAlone);
    EXPECT_GE(r.accelerators[1].finishTick, bAlone);
    EXPECT_GT(r.accelerators[0].finishTick +
                  r.accelerators[1].finishTick,
              aAlone + bAlone);
}

TEST(MultiSoc, HeterogeneousDmaPlusCachePair)
{
    const auto &p = pair();
    SocConfig platform;
    Soc soc(platform,
                 {spec(p.traceA, p.dddgA, dmaDesign(4)),
                  spec(p.traceB, p.dddgB, cacheDesign(4))});
    auto r = soc.run();
    EXPECT_GT(r.accelerators[0].finishTick, 0u);
    EXPECT_GT(r.accelerators[1].finishTick, 0u);
    EXPECT_GT(r.busUtilization, 0.0);
}

TEST(MultiSoc, CacheAcceleratorSuffersLessFromCoarseNeighbor)
{
    // The paper: coarse-grained DMA is affected much more by shared
    // resource contention; fine-grained cache fills squeeze through.
    const auto &p = pair();
    Tick cacheAlone = soloFinish(p.traceB, p.dddgB, cacheDesign(4));

    SocConfig platform;
    Soc soc(platform,
                 {spec(p.traceA, p.dddgA, dmaDesign(16)),
                  spec(p.traceB, p.dddgB, cacheDesign(4))});
    auto r = soc.run();
    Tick cacheShared = r.accelerators[1].finishTick;
    // Slower than alone, but by a bounded factor.
    EXPECT_GE(cacheShared, cacheAlone);
    EXPECT_LT(cacheShared, cacheAlone * 3);
}

TEST(MultiSoc, WiderBusRelievesContention)
{
    const auto &p = pair();
    auto runAt = [&](unsigned width) {
        SocConfig platform;
        platform.busWidthBits = width;
        Soc soc(platform,
                     {spec(p.traceA, p.dddgA, dmaDesign(4)),
                      spec(p.traceB, p.dddgB, dmaDesign(4))});
        return soc.run().totalTicks;
    };
    EXPECT_LT(runAt(64), runAt(32));
}

TEST(MultiSoc, FourAcceleratorsScaleQueueing)
{
    const auto &p = pair();
    SocConfig platform;
    std::vector<AcceleratorSpec> specs;
    for (int i = 0; i < 4; ++i)
        specs.push_back(spec(p.traceA, p.dddgA, dmaDesign(2)));
    Soc soc(platform, std::move(specs));
    auto r = soc.run();
    ASSERT_EQ(r.accelerators.size(), 4u);
    // The shared CPU flushes serialize: later accelerators finish
    // strictly later.
    Tick prev = 0;
    std::vector<Tick> finishes;
    for (const auto &a : r.accelerators)
        finishes.push_back(a.finishTick);
    std::sort(finishes.begin(), finishes.end());
    for (Tick t : finishes) {
        EXPECT_GT(t, prev);
        prev = t;
    }
}

TEST(MultiSoc, RejectsEmptySpec)
{
    SocConfig platform;
    EXPECT_THROW(Soc(platform, {}), FatalError);
}

/**
 * Run @p soc with the bus protocol checker armed and return its full
 * observable output: the record, every stat, the end tick, each
 * accelerator's finish tick and cycles, and the executed-event count
 * (the test_determinism.cc runAndDump contract, per accelerator).
 */
std::string
runAndDump(Soc &soc)
{
    soc.bus().enableProtocolChecker();
    SocResults r = soc.run();

    std::ostringstream os;
    printRecord(os, soc.config(), r);
    dumpAllStats(os, soc);
    os << "endTick=" << r.totalTicks
       << " accelCycles=" << r.accelCycles
       << " executed=" << soc.eventQueue().numExecuted() << "\n";
    for (const AcceleratorResult &a : r.accelerators)
        os << "finishTick=" << a.finishTick
           << " accelCycles=" << a.accelCycles << "\n";

    soc.bus().protocolChecker()->checkQuiescent();
    soc.eventQueue().checkDrained();
    return os.str();
}

SocConfig
options(const char *text)
{
    std::vector<std::string> opts;
    std::istringstream iss(text);
    std::string tok;
    while (iss >> tok)
        opts.push_back(tok);
    return parseConfig(opts);
}

TEST(MultiSoc, OneSpecMatchesTheThreeArgumentSoc)
{
    // The six paper design points and the ACP, interrupt-queued and
    // seeded-fault variants of tests/test_event_order.cc.
    struct Point
    {
        const char *workload;
        const char *options;
    };
    const Point points[] = {
        {"stencil-stencil2d",
         "mem=dma lanes=8 partitions=8 pipelined=1 triggered=1"},
        {"gemm-ncubed", "mem=dma lanes=4 partitions=4"},
        {"md-knn", "mem=cache lanes=4 cache_kb=16 cache_ports=2"},
        {"stencil-stencil3d",
         "mem=dma lanes=8 partitions=8 pipelined=1 triggered=1"},
        {"spmv-crs", "mem=cache lanes=4 cache_kb=32 cache_ports=2"},
        {"fft-transpose", "mem=dma lanes=8 partitions=8 pipelined=1"},
        {"stencil-stencil2d", "mem=dma lanes=4 partitions=4 mem_type=acp"},
        {"stencil-stencil2d",
         "mem=dma lanes=4 partitions=4 completion=interrupt "
         "queue_depth=4 invocations=2"},
        {"stencil-stencil2d",
         "mem=dma lanes=4 partitions=4 fault_dram_read=0.2 "
         "fault_bus_resp=0.1 fault_seed=42"},
    };
    for (const Point &p : points) {
        SocConfig cfg = options(p.options);
        Trace trace = makeWorkload(p.workload)->build().trace;
        Dddg dddg(trace);
        Soc single(cfg, trace, dddg);
        Soc composed(cfg, {spec(trace, dddg, cfg)});
        const std::string a = runAndDump(single);
        EXPECT_EQ(a, runAndDump(composed))
            << p.workload << " " << p.options;
        EXPECT_NE(a.find("finishTick="), std::string::npos);
    }
}

/** A DMA accelerator moving its arrays over the ACP beside a plain
 * DMA accelerator, both completing by interrupt. */
Soc
mixedPair(const PreparedPair &p)
{
    SocConfig platform = options("completion=interrupt");
    SocConfig acp = options("mem=dma lanes=4 partitions=4 mem_type=acp");
    SocConfig dma = options("mem=dma lanes=4 partitions=4 pipelined=1");
    return Soc(platform, {spec(p.traceA, p.dddgA, acp),
                          spec(p.traceB, p.dddgB, dma)});
}

TEST(MultiSoc, MixedAcpAndDmaPairUnderInterruptsIsDeterministic)
{
    const auto &p = pair();
    Soc first = mixedPair(p);
    const std::string dump = runAndDump(first);
    ASSERT_NE(first.acpPort(0), nullptr);
    EXPECT_EQ(first.acpPort(1), nullptr);
    ASSERT_NE(first.interruptLine(), nullptr);
    EXPECT_EQ(first.interruptLine()->stats().get("delivered"), 2.0);
    EXPECT_EQ(first.cpu().stats().get("spinTicks"), 0.0);
    EXPECT_NE(dump.find("accel0.iface.acp.snoopHits"), std::string::npos);
    EXPECT_NE(dump.find("accel1.datapath."), std::string::npos);

    Soc second = mixedPair(p);
    EXPECT_EQ(runAndDump(second), dump);
}

TEST(MultiSoc, IsolatedRejectsSeveralAccelerators)
{
    const auto &p = pair();
    SocConfig isolated = dmaDesign(4);
    isolated.isolated = true;
    EXPECT_THROW(Soc(isolated, {spec(p.traceA, p.dddgA, dmaDesign(4)),
                                spec(p.traceB, p.dddgB, dmaDesign(4))}),
                 FatalError);
    EXPECT_THROW(Soc(SocConfig{}, {spec(p.traceA, p.dddgA, isolated),
                                   spec(p.traceB, p.dddgB, dmaDesign(4))}),
                 FatalError);
}

std::string
goldenLine(const std::string &label, Soc &soc)
{
    return hashLine(label, runAndDump(soc));
}

TEST(MultiSoc, ContentionSystemsMatchGolden)
{
    // bench/contention.cc's systems: a stencil3d victim (DMA or
    // cache) beside 0-3 streaming kmp neighbours on a 32- or 64-bit
    // bus, then the mixed ACP + DMA pair.
    const Trace victim = makeWorkload("stencil-stencil3d")->build().trace;
    const Trace hog = makeWorkload("kmp-kmp")->build().trace;
    const Dddg victimDddg(victim), hogDddg(hog);
    const SocConfig victims[] = {
        options("mem=dma lanes=4 partitions=4 triggered=1"),
        options("mem=cache lanes=4 cache_kb=16 cache_ports=2")};
    const SocConfig hogDesign =
        options("mem=dma lanes=16 partitions=16 triggered=1");

    std::string fresh;
    for (unsigned bus : {32u, 64u}) {
        for (const SocConfig &v : victims) {
            for (unsigned hogs = 0; hogs <= 3; ++hogs) {
                SocConfig platform;
                platform.busWidthBits = bus;
                std::vector<AcceleratorSpec> specs = {
                    spec(victim, victimDddg, v)};
                for (unsigned i = 0; i < hogs; ++i)
                    specs.push_back(spec(hog, hogDddg, hogDesign));
                Soc soc(platform, std::move(specs));
                fresh += goldenLine(
                    format("contention-bus%u-%s-hogs%u", bus,
                           memInterfaceName(v.memType), hogs),
                    soc);
            }
        }
    }
    Soc mixed = mixedPair(pair());
    fresh += goldenLine("mixed-acp-dma-interrupt", mixed);

    std::ifstream in(std::string(GENIE_GOLDEN_DIR) + "/multi_soc.txt");
    std::stringstream want;
    want << in.rdbuf();
    EXPECT_EQ(fresh, want.str()) << "fresh lines:\n" << fresh;
}

} // namespace
} // namespace genie
