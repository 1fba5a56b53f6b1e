/**
 * @file
 * Genie-Resilience tests: the seeded fault-injection campaign, the
 * error/retry protocol at every injection site, the forward-progress
 * watchdog, and the config validation that guards them.
 *
 * The determinism contract is the backbone: a zero-rate campaign must
 * be byte-identical to a run with no injector at all, and two runs of
 * the same nonzero-rate campaign with the same seed must be
 * byte-identical to each other.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "accel/dddg.hh"
#include "core/config_parse.hh"
#include "core/report.hh"
#include "core/soc.hh"
#include "core/validation.hh"
#include "dma/dma_engine.hh"
#include "fault/fault_injector.hh"
#include "fault/watchdog.hh"
#include "mem/bus.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/protocol_checker.hh"
#include "mem/tlb.hh"
#include "sim/random.hh"
#include "workloads/workload.hh"

namespace genie
{
namespace
{

constexpr Tick period = 10000; // 100 MHz

// ---------------------------------------------------------------
// Rng: rejection sampling and probability draws.
// ---------------------------------------------------------------

TEST(Rng, BelowStaysInBounds)
{
    Rng rng(42);
    const std::uint64_t bounds[] = {1, 2, 3, 7, 10, 1000,
                                    (1ull << 63) + 12345};
    for (std::uint64_t bound : bounds) {
        for (int i = 0; i < 1000; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
}

TEST(Rng, BelowIsDeterministicPerSeed)
{
    Rng a(7), b(7), c(8);
    bool anyDiffer = false;
    for (int i = 0; i < 100; ++i) {
        std::uint64_t va = a.below(1000);
        EXPECT_EQ(va, b.below(1000));
        anyDiffer = anyDiffer || va != c.below(1000);
    }
    EXPECT_TRUE(anyDiffer);
}

TEST(Rng, BelowIsUnbiasedOverSmallBound)
{
    // With rejection sampling every residue of a tiny bound is hit
    // almost exactly uniformly; the old `next() % bound` also passes
    // this for bound=3 (the bias is ~2^-63), but the test pins the
    // uniformity property itself.
    Rng rng(1234);
    const std::uint64_t bound = 3;
    std::uint64_t counts[3] = {0, 0, 0};
    const int draws = 30000;
    for (int i = 0; i < draws; ++i)
        ++counts[rng.below(bound)];
    for (std::uint64_t c : counts) {
        EXPECT_GT(c, draws / 3 - 600u);
        EXPECT_LT(c, draws / 3 + 600u);
    }
}

TEST(Rng, ChanceDegenerateProbabilitiesConsumeNoState)
{
    Rng a(99), b(99);
    EXPECT_FALSE(a.chance(0.0));
    EXPECT_FALSE(a.chance(-1.0));
    EXPECT_TRUE(a.chance(1.0));
    EXPECT_TRUE(a.chance(2.0));
    // a drew nothing, so it must still be in lockstep with b.
    EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, ChanceMatchesProbabilityRoughly)
{
    Rng rng(5);
    int hits = 0;
    const int draws = 20000;
    for (int i = 0; i < draws; ++i)
        hits += rng.chance(0.25) ? 1 : 0;
    EXPECT_GT(hits, draws / 4 - 500);
    EXPECT_LT(hits, draws / 4 + 500);
}

// ---------------------------------------------------------------
// FaultInjector: per-site streams, stats, retry policy.
// ---------------------------------------------------------------

TEST(FaultInjector, SameSeedSameDecisions)
{
    FaultConfig cfg;
    cfg.seed = 77;
    cfg.rates[static_cast<unsigned>(FaultSite::DramRead)] = 0.3;
    cfg.rates[static_cast<unsigned>(FaultSite::DmaBeat)] = 0.6;

    EventQueue eqa, eqb;
    FaultInjector a("fi", eqa, cfg);
    FaultInjector b("fi", eqb, cfg);
    for (int i = 0; i < 500; ++i) {
        EXPECT_EQ(a.shouldFault(FaultSite::DramRead),
                  b.shouldFault(FaultSite::DramRead));
        EXPECT_EQ(a.shouldFault(FaultSite::DmaBeat),
                  b.shouldFault(FaultSite::DmaBeat));
    }
    EXPECT_EQ(a.checks(FaultSite::DramRead), 500u);
    EXPECT_EQ(a.injections(FaultSite::DramRead),
              b.injections(FaultSite::DramRead));
}

TEST(FaultInjector, SitesDrawFromIndependentStreams)
{
    // Enabling a second site must not perturb the first site's
    // injection pattern — each site owns its own Rng stream.
    FaultConfig one;
    one.seed = 123;
    one.rates[static_cast<unsigned>(FaultSite::BusResp)] = 0.4;

    FaultConfig two = one;
    two.rates[static_cast<unsigned>(FaultSite::TlbWalk)] = 0.9;

    EventQueue eqa, eqb;
    FaultInjector a("fi", eqa, one);
    FaultInjector b("fi", eqb, two);
    for (int i = 0; i < 300; ++i) {
        // Interleave TlbWalk draws on b only.
        b.shouldFault(FaultSite::TlbWalk);
        EXPECT_EQ(a.shouldFault(FaultSite::BusResp),
                  b.shouldFault(FaultSite::BusResp));
    }
}

TEST(FaultInjector, RateOneAlwaysFaultsRateZeroNever)
{
    FaultConfig cfg;
    cfg.rates[static_cast<unsigned>(FaultSite::DramRead)] = 1.0;
    EventQueue eq;
    FaultInjector fi("fi", eq, cfg);
    for (int i = 0; i < 10; ++i) {
        EXPECT_TRUE(fi.shouldFault(FaultSite::DramRead));
        EXPECT_FALSE(fi.shouldFault(FaultSite::BusResp));
    }
    EXPECT_EQ(fi.injections(FaultSite::DramRead), 10u);
    EXPECT_EQ(fi.checks(FaultSite::BusResp), 10u);
    EXPECT_EQ(fi.injections(FaultSite::BusResp), 0u);
}

TEST(FaultInjector, BackoffDoublesAndClamps)
{
    FaultConfig cfg;
    cfg.backoffCycles = 4;
    EventQueue eq;
    FaultInjector fi("fi", eq, cfg);
    EXPECT_EQ(fi.backoffCycles(0), 4u);
    EXPECT_EQ(fi.backoffCycles(1), 8u);
    EXPECT_EQ(fi.backoffCycles(3), 32u);
    // The shift clamps at 16, so huge attempt counts cannot overflow.
    EXPECT_EQ(fi.backoffCycles(40), 4ull << 16);
}

TEST(FaultInjector, RejectsOutOfRangeRates)
{
    FaultConfig cfg;
    cfg.rates[0] = 1.5;
    EventQueue eq;
    EXPECT_THROW(FaultInjector("fi", eq, cfg), FatalError);
}

TEST(FaultInjector, HelpersFallBackToDefaultsWithoutInjector)
{
    EventQueue eq;
    EXPECT_EQ(faultMaxRetries(eq), FaultConfig{}.maxRetries);
    EXPECT_EQ(faultBackoffCycles(eq, 1),
              static_cast<std::uint64_t>(FaultConfig{}.backoffCycles)
                  << 1);
}

// ---------------------------------------------------------------
// ProtocolChecker: ErrorResp is a legal termination.
// ---------------------------------------------------------------

TEST(ProtocolCheckerFault, ErrorRespRetiresARequest)
{
    ProtocolChecker pc;
    Packet req;
    req.cmd = MemCmd::ReadShared;
    req.addr = 0x1000;
    req.size = 64;
    req.reqId = 9;
    req.src = 2;
    pc.onRequest(req);
    EXPECT_EQ(pc.outstanding(), 1u);

    pc.onResponse(req.makeError());
    EXPECT_EQ(pc.outstanding(), 0u);
    pc.checkQuiescent(); // must not panic
}

// ---------------------------------------------------------------
// DMA engine: beat reissue with backoff, retry exhaustion.
// ---------------------------------------------------------------

struct FaultDmaFixture : public ::testing::Test
{
    FaultDmaFixture()
        : bus("bus", eq, ClockDomain(period), SystemBus::Params{}),
          dram("dram", eq, ClockDomain(period), bus, {}),
          dma("dma", eq, ClockDomain(period), bus, DmaEngine::Params{})
    {
        bus.setTarget(&dram);
        bus.enableProtocolChecker();
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
    DmaEngine dma;
    std::unique_ptr<FaultInjector> injector;
};

TEST_F(FaultDmaFixture, BeatsRetryAndTransactionStillCompletes)
{
    inject(FaultSite::DmaBeat, 0.5);
    std::uint64_t beatBytes = 0;
    bool done = false, ok = false;
    dma.startTransaction(
        DmaEngine::Direction::MemToAccel, {{0, 0x1000, 0, 4096}},
        [&](int, Addr, unsigned len) { beatBytes += len; },
        [&](bool okArg) {
            done = true;
            ok = okArg;
        });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_TRUE(ok);
    // Every byte still lands exactly once despite the retries.
    EXPECT_EQ(beatBytes, 4096u);
    EXPECT_GT(dma.stats().get("retries"), 0.0);
    EXPECT_DOUBLE_EQ(dma.stats().get("retryExhausted"), 0.0);
    bus.protocolChecker()->checkQuiescent();
    EXPECT_TRUE(dma.idle());
}

TEST_F(FaultDmaFixture, DramReadErrorsAreRetriedToo)
{
    inject(FaultSite::DramRead, 0.4);
    bool ok = false;
    dma.startTransaction(DmaEngine::Direction::MemToAccel,
                         {{0, 0x2000, 0, 2048}}, nullptr,
                         [&](bool okArg) { ok = okArg; });
    eq.run();
    EXPECT_TRUE(ok);
    EXPECT_GT(dram.stats().get("readErrors"), 0.0);
    EXPECT_GT(dma.stats().get("retries"), 0.0);
    bus.protocolChecker()->checkQuiescent();
}

TEST_F(FaultDmaFixture, RetryExhaustionFailsTheTransaction)
{
    inject(FaultSite::DmaBeat, 1.0, /*maxRetries=*/2);
    bool done = false, ok = true;
    dma.startTransaction(DmaEngine::Direction::MemToAccel,
                         {{0, 0x1000, 0, 512}}, nullptr,
                         [&](bool okArg) {
                             done = true;
                             ok = okArg;
                         });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_FALSE(ok);
    EXPECT_GE(dma.stats().get("retryExhausted"), 1.0);
    // The engine must drain its window and return to idle so a sweep
    // can continue with the next design point.
    EXPECT_TRUE(dma.idle());
    EXPECT_EQ(dma.inFlightBeats(), 0u);
    bus.protocolChecker()->checkQuiescent();
}

TEST_F(FaultDmaFixture, FailedTransactionDoesNotBlockTheNext)
{
    inject(FaultSite::DmaBeat, 1.0, /*maxRetries=*/1);
    bool firstOk = true, secondOk = false;
    dma.startTransaction(DmaEngine::Direction::MemToAccel,
                         {{0, 0x1000, 0, 256}}, nullptr,
                         [&](bool okArg) {
                             firstOk = okArg;
                             // Later transactions run with a clean
                             // slate (different rate via new config
                             // is not possible mid-run; instead
                             // detach the injector so the retry of
                             // the *next* transaction succeeds).
                             eq.setFaultInjector(nullptr);
                             dma.startTransaction(
                                 DmaEngine::Direction::MemToAccel,
                                 {{0, 0x4000, 0, 256}}, nullptr,
                                 [&](bool ok2) { secondOk = ok2; });
                         });
    eq.run();
    EXPECT_FALSE(firstOk);
    EXPECT_TRUE(secondOk);
    bus.protocolChecker()->checkQuiescent();
}

// ---------------------------------------------------------------
// Bus response NACKs.
// ---------------------------------------------------------------

TEST_F(FaultDmaFixture, BusNacksConvertResponsesToErrors)
{
    inject(FaultSite::BusResp, 0.3);
    bool ok = false;
    dma.startTransaction(DmaEngine::Direction::AccelToMem,
                         {{0, 0x3000, 0, 2048}}, nullptr,
                         [&](bool okArg) { ok = okArg; });
    eq.run();
    EXPECT_TRUE(ok);
    EXPECT_GT(bus.stats().get("errors"), 0.0);
    EXPECT_GT(dma.stats().get("retries"), 0.0);
    bus.protocolChecker()->checkQuiescent();
}

// ---------------------------------------------------------------
// Cache: MSHR reissue under injected errors.
// ---------------------------------------------------------------

struct FaultCacheFixture : public ::testing::Test
{
    FaultCacheFixture()
        : bus("bus", eq, ClockDomain(period), SystemBus::Params{}),
          dram("dram", eq, ClockDomain(period), bus, {})
    {
        bus.setTarget(&dram);
        bus.enableProtocolChecker();
    }

    void
    inject(FaultSite site, double rate, unsigned maxRetries)
    {
        FaultConfig cfg;
        cfg.seed = 7;
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
    std::unique_ptr<FaultInjector> injector;
};

TEST_F(FaultCacheFixture, MissesReissueUntilTheFillSucceeds)
{
    inject(FaultSite::DramRead, 0.5, /*maxRetries=*/32);
    Cache::Params cp;
    cp.prefetchEnabled = false;
    Cache cache("c", eq, ClockDomain(period), bus, cp);

    int completed = 0;
    cache.setCallback([&](std::uint64_t, bool) { ++completed; });

    int issued = 0;
    for (Addr addr = 0; addr < 64 * 64; addr += 64) {
        while (cache.access(addr, 4, false, addr, 0).reject !=
               Cache::Reject::None)
            eq.step();
        ++issued;
    }
    eq.run();
    EXPECT_EQ(completed, issued);
    EXPECT_GT(cache.stats().get("errors"), 0.0);
    EXPECT_GT(cache.stats().get("retries"), 0.0);
    EXPECT_DOUBLE_EQ(cache.stats().get("retryExhausted"), 0.0);
    EXPECT_FALSE(cache.hasOutstanding());
    bus.protocolChecker()->checkQuiescent();
}

TEST_F(FaultCacheFixture, ExhaustedMissIsFatalWithDiagnosis)
{
    inject(FaultSite::DramRead, 1.0, /*maxRetries=*/2);
    Cache::Params cp;
    cp.prefetchEnabled = false;
    Cache cache("c", eq, ClockDomain(period), bus, cp);
    cache.setCallback([](std::uint64_t, bool) {});
    ASSERT_EQ(cache.access(0, 4, false, 1, 0).reject,
              Cache::Reject::None);
    EXPECT_THROW(eq.run(), FatalError);
    EXPECT_GE(cache.stats().get("retryExhausted"), 1.0);
}

/** Memory target that logs every request on its way to the DRAM. */
struct RecordingTarget : public BusTarget
{
    explicit RecordingTarget(DramCtrl &d) : dram(d) {}

    void
    recvRequest(const Packet &pkt) override
    {
        seen.push_back(pkt);
        dram.recvRequest(pkt);
    }

    DramCtrl &dram;
    std::vector<Packet> seen;
};

/** A one-line cache holding a dirty line 0, whose next miss (to line
 * 64) evicts it. Steps @p eq until that writeback is on the bus. */
void
startWriteback(EventQueue &eq, Cache &cache)
{
    ASSERT_EQ(cache.access(0, 4, /*isWrite=*/true, 1, 0).reject,
              Cache::Reject::None);
    eq.run();
    ASSERT_EQ(cache.access(64, 4, false, 2, 0).reject,
              Cache::Reject::None);
    while (cache.stats().get("writebacks") < 1.0 && eq.step()) {
    }
    ASSERT_DOUBLE_EQ(cache.stats().get("writebacks"), 1.0);
}

Cache::Params
oneLineCache()
{
    Cache::Params cp;
    cp.sizeBytes = 64;
    cp.assoc = 1;
    return cp;
}

TEST_F(FaultCacheFixture, NackedWritebackIsReissuedUnderANewReqId)
{
    RecordingTarget target(dram);
    bus.setTarget(&target);
    Cache cache("c", eq, ClockDomain(period), bus, oneLineCache());
    int completed = 0;
    cache.setCallback([&](std::uint64_t, bool) { ++completed; });
    startWriteback(eq, cache);

    // NACK the writeback's WriteResp, then let the reissue through.
    inject(FaultSite::BusResp, 1.0, /*maxRetries=*/4);
    while (cache.stats().get("retries") < 1.0 && eq.step()) {
    }
    EXPECT_TRUE(cache.hasOutstanding());
    eq.setFaultInjector(nullptr);
    eq.run();

    EXPECT_EQ(completed, 2);
    EXPECT_DOUBLE_EQ(cache.stats().get("errors"), 1.0);
    EXPECT_DOUBLE_EQ(cache.stats().get("retries"), 1.0);
    EXPECT_FALSE(cache.hasOutstanding());
    std::vector<Packet> writebacks;
    for (const Packet &p : target.seen)
        if (p.cmd == MemCmd::Writeback)
            writebacks.push_back(p);
    ASSERT_EQ(writebacks.size(), 2u);
    EXPECT_EQ(writebacks[0].addr, 0u);
    EXPECT_EQ(writebacks[1].addr, 0u);
    EXPECT_NE(writebacks[0].reqId, writebacks[1].reqId);
    bus.protocolChecker()->checkQuiescent();
}

TEST_F(FaultCacheFixture, ExhaustedWritebackIsFatal)
{
    Cache cache("c", eq, ClockDomain(period), bus, oneLineCache());
    cache.setCallback([](std::uint64_t, bool) {});
    startWriteback(eq, cache);
    inject(FaultSite::BusResp, 1.0, /*maxRetries=*/2);
    EXPECT_THROW(eq.run(), FatalError);
    EXPECT_DOUBLE_EQ(cache.stats().get("retries"), 2.0);
    EXPECT_DOUBLE_EQ(cache.stats().get("retryExhausted"), 1.0);
}

// ---------------------------------------------------------------
// TLB: injected walk timeouts multiply the walk latency.
// ---------------------------------------------------------------

TEST(FaultTlb, WalkTimeoutsAddFullWalkLatencies)
{
    EventQueue eq;
    FaultConfig cfg;
    cfg.rates[static_cast<unsigned>(FaultSite::TlbWalk)] = 1.0;
    cfg.maxRetries = 3;
    FaultInjector fi("fault.injector", eq, cfg);
    eq.setFaultInjector(&fi);

    AladdinTlb::Params tp;
    AladdinTlb tlb("tlb", eq, ClockDomain(period), tp);

    Tick doneAt = 0;
    bool hit = tlb.translate(0x1234, [&](Addr) {
        doneAt = eq.curTick();
    }).has_value();
    EXPECT_FALSE(hit);
    eq.run();
    // rate 1.0 burns the whole budget: (1 + maxRetries) full walks.
    EXPECT_EQ(doneAt, (1 + 3) * tp.missLatency);
    EXPECT_DOUBLE_EQ(tlb.stats().get("retries"), 3.0);
    EXPECT_DOUBLE_EQ(tlb.stats().get("retryExhausted"), 1.0);
}

// ---------------------------------------------------------------
// Watchdog.
// ---------------------------------------------------------------

/** Schedule a self-rescheduling poll event: simulated work that burns
 * events (and simulated time) without making any forward progress —
 * the livelock signature the watchdog exists to catch. */
void
schedulePoll(EventQueue &eq)
{
    eq.scheduleIn(period, [&eq] { schedulePoll(eq); }, "test.poll");
}

TEST(WatchdogTest, RequiresNonzeroInterval)
{
    EventQueue eq;
    EXPECT_THROW(Watchdog("wd", eq, Watchdog::Params{}), FatalError);
}

TEST(WatchdogTest, DetectsAWedgedBusClientWithinOneInterval)
{
    EventQueue eq;
    SystemBus bus("bus", eq, ClockDomain(period),
                  SystemBus::Params{});

    // A target that swallows every request: the requester's response
    // never comes, and the polling driver spins forever.
    struct SilentTarget : public BusTarget
    {
        void recvRequest(const Packet &) override {}
    } silent;
    struct NullClient : public BusClient
    {
        void recvResponse(const Packet &) override {}
    } client;
    bus.setTarget(&silent);
    BusPortId port = bus.attachClient(&client, false);

    const Tick interval = 100 * period;
    Watchdog wd("fault.watchdog", eq, {interval});
    wd.addProgressSource("bus.packets", [&] {
        return static_cast<std::uint64_t>(bus.stats().get("packets"));
    });
    wd.addDiagnostic("client", [] {
        return std::string("1 request outstanding, no response");
    });

    Packet req;
    req.cmd = MemCmd::ReadShared;
    req.addr = 0x1000;
    req.size = 64;
    req.reqId = 1;
    bus.sendRequest(port, req);
    schedulePoll(eq);

    wd.arm();
    Tick caughtAt = 0;
    std::string what;
    try {
        eq.run();
        FAIL() << "watchdog never fired on a wedged client";
    } catch (const SimulationStalledError &e) {
        caughtAt = eq.curTick();
        what = e.what();
    }
    // The packet moves during the first interval; the second check —
    // one interval after the stall began — must catch the freeze.
    EXPECT_LE(caughtAt, 2 * interval);
    EXPECT_NE(what.find("no forward progress"), std::string::npos);
    EXPECT_NE(what.find("bus.packets"), std::string::npos);
    EXPECT_NE(what.find("1 request outstanding"), std::string::npos);
    EXPECT_NE(what.find("event queue"), std::string::npos);
    EXPECT_FALSE(wd.armed());
    EXPECT_GE(wd.checksDone(), 1u);
}

TEST(WatchdogTest, NoFalsePositiveWhileProgressing)
{
    EventQueue eq;
    const Tick interval = 10 * period;
    Watchdog wd("fault.watchdog", eq, {interval});

    std::uint64_t counter = 0;
    wd.addProgressSource("work", [&] { return counter; });

    // Work that advances the counter every cycle for many intervals,
    // then completes and disarms the watchdog so the queue drains.
    std::function<void()> work = [&] {
        if (++counter >= 100) {
            wd.disarm();
            return;
        }
        eq.scheduleIn(period, work, "test.work");
    };
    eq.scheduleIn(period, work, "test.work");

    wd.arm();
    eq.run(); // must terminate without throwing
    EXPECT_GE(wd.checksDone(), 2u);
    EXPECT_FALSE(wd.armed());
    eq.checkDrained();
}

// ---------------------------------------------------------------
// Full-system determinism and byte-identity.
// ---------------------------------------------------------------

std::string
runAndDump(const std::string &workload, const SocConfig &cfg)
{
    Trace trace = makeWorkload(workload)->build().trace;
    Dddg dddg(trace);
    Soc soc(cfg, trace, dddg);
    soc.bus().enableProtocolChecker();
    SocResults r = soc.run();

    std::ostringstream os;
    printRecord(os, cfg, r);
    dumpAllStats(os, soc);
    os << "endTick=" << r.totalTicks
       << " executed=" << soc.eventQueue().numExecuted() << "\n";
    soc.bus().protocolChecker()->checkQuiescent();
    return os.str();
}

TEST(FaultCampaign, ZeroRateCampaignIsByteIdenticalToNoInjector)
{
    SocConfig plain;
    plain.dma.pipelined = true;

    SocConfig zeroRate = plain;
    zeroRate.faults.seed = 424242; // seed alone must change nothing

    const std::string a = runAndDump("stencil-stencil2d", plain);
    const std::string b = runAndDump("stencil-stencil2d", zeroRate);
    EXPECT_EQ(a, b);
}

TEST(FaultCampaign, ZeroRateSocBuildsNoInjectorOrWatchdog)
{
    Trace trace = makeWorkload("aes-aes")->build().trace;
    Dddg dddg(trace);
    Soc soc(SocConfig{}, trace, dddg);
    EXPECT_EQ(soc.faultInjector(), nullptr);
    EXPECT_EQ(soc.eventQueue().faultInjector(), nullptr);
    EXPECT_EQ(soc.watchdog(), nullptr);
}

SocConfig
campaignConfig(std::uint64_t seed)
{
    SocConfig cfg;
    cfg.dma.pipelined = true;
    cfg.faults.seed = seed;
    cfg.faults.rates[static_cast<unsigned>(FaultSite::DramRead)] =
        0.02;
    cfg.faults.rates[static_cast<unsigned>(FaultSite::BusResp)] = 0.02;
    cfg.faults.rates[static_cast<unsigned>(FaultSite::DmaBeat)] = 0.05;
    cfg.faults.maxRetries = 64;
    return cfg;
}

TEST(FaultCampaign, SameSeedRunsAreByteIdentical)
{
    const SocConfig cfg = campaignConfig(11);
    const std::string a = runAndDump("stencil-stencil2d", cfg);
    const std::string b = runAndDump("stencil-stencil2d", cfg);
    EXPECT_EQ(a, b);
    // The campaign must actually have injected something, or the test
    // proves nothing.
    EXPECT_NE(a.find("fault.injector"), std::string::npos);
}

TEST(FaultCampaign, DifferentSeedsDiverge)
{
    const std::string a =
        runAndDump("stencil-stencil2d", campaignConfig(11));
    const std::string b =
        runAndDump("stencil-stencil2d", campaignConfig(12));
    EXPECT_NE(a, b);
}

TEST(FaultCampaign, CacheModeCampaignCompletes)
{
    SocConfig cfg;
    cfg.memType = MemInterface::Cache;
    cfg.faults.seed = 3;
    cfg.faults.rates[static_cast<unsigned>(FaultSite::DramRead)] =
        0.02;
    cfg.faults.rates[static_cast<unsigned>(FaultSite::TlbWalk)] = 0.1;
    cfg.faults.maxRetries = 64;
    const std::string a = runAndDump("aes-aes", cfg);
    const std::string b = runAndDump("aes-aes", cfg);
    EXPECT_EQ(a, b);
}

TEST(FaultCampaign, WatchdogDoesNotFireOnAHealthyWorkload)
{
    SocConfig cfg;
    cfg.dma.pipelined = true;
    cfg.faults.watchdogCycles = 2000; // 20 us between checks

    Trace trace = makeWorkload("stencil-stencil2d")->build().trace;
    Dddg dddg(trace);
    Soc soc(cfg, trace, dddg);
    ASSERT_NE(soc.watchdog(), nullptr);
    SocResults r = soc.run();
    EXPECT_FALSE(r.stalled);
    EXPECT_FALSE(soc.watchdog()->armed());

    // Same design point without the watchdog: identical results (the
    // watchdog only reads counters).
    SocConfig plain;
    plain.dma.pipelined = true;
    Trace trace2 = makeWorkload("stencil-stencil2d")->build().trace;
    Dddg dddg2(trace2);
    Soc ref(plain, trace2, dddg2);
    SocResults rr = ref.run();
    EXPECT_EQ(r.totalTicks, rr.totalTicks);
    EXPECT_DOUBLE_EQ(r.energyPj, rr.energyPj);
}

// ---------------------------------------------------------------
// Config plumbing and validation.
// ---------------------------------------------------------------

TEST(FaultConfigParse, OptionsRoundTripThroughRender)
{
    SocConfig cfg = campaignConfig(997);
    cfg.faults.backoffCycles = 6;
    cfg.faults.watchdogCycles = 1234;

    std::string rendered = configToOptions(cfg);
    std::vector<std::string> opts;
    std::istringstream is(rendered);
    for (std::string tok; is >> tok;)
        opts.push_back(tok);
    SocConfig back = parseConfig(opts);

    EXPECT_EQ(back.faults.seed, cfg.faults.seed);
    for (unsigned i = 0; i < numFaultSites; ++i)
        EXPECT_DOUBLE_EQ(back.faults.rates[i], cfg.faults.rates[i]);
    EXPECT_EQ(back.faults.maxRetries, cfg.faults.maxRetries);
    EXPECT_EQ(back.faults.backoffCycles, cfg.faults.backoffCycles);
    EXPECT_EQ(back.faults.watchdogCycles, cfg.faults.watchdogCycles);
}

TEST(FaultConfigParse, RejectsBadRates)
{
    SocConfig c;
    EXPECT_THROW(applyConfigOption(c, "fault_dram_read=1.5"),
                 FatalError);
    EXPECT_THROW(applyConfigOption(c, "fault_bus_resp=-0.1"),
                 FatalError);
    EXPECT_THROW(applyConfigOption(c, "fault_dma_beat=banana"),
                 FatalError);
}

TEST(Validation, RejectsNonsensicalConfigs)
{
    auto broken = [](auto mutate) {
        SocConfig c;
        mutate(c);
        EXPECT_THROW(validateSocConfig(c), FatalError);
    };
    broken([](SocConfig &c) { c.lanes = 0; });
    broken([](SocConfig &c) { c.spadPartitions = 0; });
    broken([](SocConfig &c) { c.busWidthBits = 0; });
    broken([](SocConfig &c) { c.busWidthBits = 12; });
    broken([](SocConfig &c) { c.accelMhz = 0; });
    broken([](SocConfig &c) { c.cpuLineBytes = 0; });
    broken([](SocConfig &c) { c.cpuLineBytes = 48; });
    broken([](SocConfig &c) { c.dma.maxOutstanding = 0; });
    broken([](SocConfig &c) { c.dma.pageBytes = 0; });
    broken([](SocConfig &c) {
        c.memType = MemInterface::Cache;
        c.cache.lineBytes = 48;
    });
    broken([](SocConfig &c) {
        c.memType = MemInterface::Cache;
        c.cache.assoc = 0;
    });
    broken([](SocConfig &c) {
        c.memType = MemInterface::Cache;
        c.cache.mshrs = 0;
    });
    broken([](SocConfig &c) {
        c.memType = MemInterface::Cache;
        c.tlbEntries = 0;
    });
    broken([](SocConfig &c) { c.faults.rates[1] = 2.0; });
    broken([](SocConfig &c) {
        c.faults.rates[0] = 0.1;
        c.faults.maxRetries = 0;
    });
}

TEST(Validation, AcceptsTheDefaultConfig)
{
    validateSocConfig(SocConfig{}); // must not throw
    SocConfig cache;
    cache.memType = MemInterface::Cache;
    validateSocConfig(cache);
}

TEST(Validation, SocConstructorRunsValidation)
{
    Trace trace = makeWorkload("aes-aes")->build().trace;
    Dddg dddg(trace);
    SocConfig c;
    c.dma.maxOutstanding = 0;
    EXPECT_THROW(Soc(c, trace, dddg), FatalError);
}

} // namespace
} // namespace genie
