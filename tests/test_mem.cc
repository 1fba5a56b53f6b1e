/**
 * @file
 * Memory-substrate unit tests: system bus bandwidth/arbitration, DRAM
 * row-buffer behavior, cache hits/misses/LRU/MSHR/coherence/flush,
 * TLB translation and replacement, scratchpad bank conflicts, and
 * full/empty ready bits.
 */

#include <gtest/gtest.h>

#include <optional>

#include "mem/bus.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/full_empty.hh"
#include "mem/scratchpad.hh"
#include "mem/tlb.hh"
#include "sim/logging.hh"

namespace genie
{
namespace
{

constexpr Tick busPeriod = 10000; // 100 MHz

/** A bus client recording its responses. */
class Recorder : public BusClient
{
  public:
    void
    recvResponse(const Packet &pkt) override
    {
        responses.push_back(pkt);
    }
    std::vector<Packet> responses;
};

struct BusFixture : public ::testing::Test
{
    BusFixture()
        : bus("bus", eq, ClockDomain(busPeriod), busParams()),
          dram("dram", eq, ClockDomain(busPeriod), bus, {})
    {
        bus.setTarget(&dram);
    }

    static SystemBus::Params
    busParams()
    {
        SystemBus::Params p;
        p.widthBits = 32;
        return p;
    }

    EventQueue eq;
    SystemBus bus;
    DramCtrl dram;
};

TEST_F(BusFixture, ReadRoundTripCompletes)
{
    Recorder client;
    BusPortId port = bus.attachClient(&client, false);

    Packet pkt;
    pkt.cmd = MemCmd::ReadShared;
    pkt.addr = 0x1000;
    pkt.size = 64;
    pkt.reqId = 7;
    bus.sendRequest(port, pkt);
    eq.run();

    ASSERT_EQ(client.responses.size(), 1u);
    EXPECT_EQ(client.responses[0].cmd, MemCmd::ReadResp);
    EXPECT_EQ(client.responses[0].reqId, 7u);
    EXPECT_EQ(client.responses[0].addr, 0x1000u);
}

TEST_F(BusFixture, BandwidthScalesWithWidth)
{
    // Transfer 4 KB via back-to-back reads on a 32-bit bus, then on a
    // 64-bit bus; the wide bus must be roughly twice as fast.
    auto timeFor = [](unsigned width) {
        EventQueue eq;
        SystemBus::Params p;
        p.widthBits = width;
        SystemBus bus("bus", eq, ClockDomain(busPeriod), p);
        DramCtrl dram("dram", eq, ClockDomain(busPeriod), bus, {});
        bus.setTarget(&dram);
        Recorder client;
        BusPortId port = bus.attachClient(&client, false);
        for (unsigned i = 0; i < 64; ++i) {
            Packet pkt;
            pkt.cmd = MemCmd::ReadShared;
            pkt.addr = i * 64;
            pkt.size = 64;
            pkt.reqId = i;
            bus.sendRequest(port, pkt);
        }
        return eq.run();
    };

    Tick narrow = timeFor(32);
    Tick wide = timeFor(64);
    EXPECT_LT(wide, narrow);
    EXPECT_GT(static_cast<double>(narrow) / static_cast<double>(wide),
              1.5);
}

TEST_F(BusFixture, ContentionSerializesAgents)
{
    // One agent alone vs. the same agent sharing the bus with a
    // second streaming agent.
    auto finishTime = [](bool contended) {
        EventQueue eq;
        SystemBus::Params p;
        p.widthBits = 32;
        SystemBus bus("bus", eq, ClockDomain(busPeriod), p);
        DramCtrl dram("dram", eq, ClockDomain(busPeriod), bus, {});
        bus.setTarget(&dram);
        Recorder a, b;
        BusPortId pa = bus.attachClient(&a, false);
        BusPortId pb = bus.attachClient(&b, false);
        for (unsigned i = 0; i < 32; ++i) {
            Packet pkt;
            pkt.cmd = MemCmd::ReadShared;
            pkt.addr = i * 64;
            pkt.size = 64;
            pkt.reqId = i;
            bus.sendRequest(pa, pkt);
            if (contended) {
                Packet q = pkt;
                q.addr += 0x100000;
                bus.sendRequest(pb, q);
            }
        }
        eq.run();
        return a.responses.size() == 32 ? eq.curTick() : 0;
    };

    Tick alone = finishTime(false);
    Tick contended = finishTime(true);
    EXPECT_GT(alone, 0u);
    EXPECT_GT(contended, alone);
}

TEST_F(BusFixture, InfiniteBandwidthIsFaster)
{
    auto timeFor = [](bool infinite) {
        EventQueue eq;
        SystemBus::Params p;
        p.widthBits = 32;
        p.infiniteBandwidth = infinite;
        SystemBus bus("bus", eq, ClockDomain(busPeriod), p);
        DramCtrl dram("dram", eq, ClockDomain(busPeriod), bus, {});
        bus.setTarget(&dram);
        Recorder client;
        BusPortId port = bus.attachClient(&client, false);
        for (unsigned i = 0; i < 64; ++i) {
            Packet pkt;
            pkt.cmd = MemCmd::ReadShared;
            pkt.addr = i * 64;
            pkt.size = 64;
            pkt.reqId = i;
            bus.sendRequest(port, pkt);
        }
        return eq.run();
    };
    EXPECT_LT(timeFor(true), timeFor(false));
}

TEST_F(BusFixture, RejectsBadWidth)
{
    EventQueue eq;
    SystemBus::Params p;
    p.widthBits = 12;
    EXPECT_THROW(SystemBus("bad", eq, ClockDomain(busPeriod), p),
                 FatalError);
}

TEST(Dram, RowHitsAreFasterThanConflicts)
{
    // Sequential accesses within one row vs. accesses alternating
    // between rows mapped to the same bank.
    auto timeFor = [](bool sameRow) {
        EventQueue eq;
        SystemBus::Params p;
        SystemBus bus("bus", eq, ClockDomain(busPeriod), p);
        DramCtrl::Params dp;
        dp.numBanks = 1; // force bank conflicts
        DramCtrl dram("dram", eq, ClockDomain(busPeriod), bus, dp);
        bus.setTarget(&dram);
        Recorder client;
        BusPortId port = bus.attachClient(&client, false);
        for (unsigned i = 0; i < 16; ++i) {
            Packet pkt;
            pkt.cmd = MemCmd::ReadShared;
            pkt.addr = sameRow ? i * 64
                               : static_cast<Addr>(i) * 2048 * 7;
            pkt.size = 64;
            pkt.reqId = i;
            bus.sendRequest(port, pkt);
        }
        return eq.run();
    };
    EXPECT_LT(timeFor(true), timeFor(false));
}

TEST(Dram, TracksRowHitRate)
{
    EventQueue eq;
    SystemBus::Params p;
    SystemBus bus("bus", eq, ClockDomain(busPeriod), p);
    DramCtrl dram("dram", eq, ClockDomain(busPeriod), bus, {});
    bus.setTarget(&dram);
    Recorder client;
    BusPortId port = bus.attachClient(&client, false);
    for (unsigned i = 0; i < 32; ++i) {
        Packet pkt;
        pkt.cmd = MemCmd::ReadShared;
        pkt.addr = i * 64; // one row
        pkt.size = 64;
        pkt.reqId = i;
        bus.sendRequest(port, pkt);
    }
    eq.run();
    EXPECT_GT(dram.rowHitRate(), 0.8);
}

// ---------------------------------------------------------------
// Cache tests.
// ---------------------------------------------------------------

struct CacheFixture : public ::testing::Test
{
    CacheFixture() { rebuild({}); }

    void
    rebuild(Cache::Params cp)
    {
        eq = std::make_unique<EventQueue>();
        SystemBus::Params bp;
        bus = std::make_unique<SystemBus>(
            "bus", *eq, ClockDomain(busPeriod), bp);
        dram = std::make_unique<DramCtrl>(
            "dram", *eq, ClockDomain(busPeriod), *bus,
            DramCtrl::Params{});
        bus->setTarget(dram.get());
        cache = std::make_unique<Cache>(
            "cache", *eq, ClockDomain(busPeriod), *bus, cp);
        cache->setCallback([this](std::uint64_t id, bool hit) {
            completions.emplace_back(id, hit);
        });
    }

    /** Issue an access on the next free cycle and run to quiescence. */
    Cache::AccessOutcome
    accessAndRun(Addr addr, bool write = false,
                 std::uint64_t id = 0)
    {
        auto out = cache->access(addr, 4, write, id, 0);
        eq->run();
        return out;
    }

    std::unique_ptr<EventQueue> eq;
    std::unique_ptr<SystemBus> bus;
    std::unique_ptr<DramCtrl> dram;
    std::unique_ptr<Cache> cache;
    std::vector<std::pair<std::uint64_t, bool>> completions;
};

TEST_F(CacheFixture, ColdMissThenHit)
{
    auto first = accessAndRun(0x100, false, 1);
    EXPECT_FALSE(first.hit);
    EXPECT_EQ(first.reject, Cache::Reject::None);
    ASSERT_EQ(completions.size(), 1u);
    EXPECT_FALSE(completions[0].second);

    auto second = accessAndRun(0x104, false, 2);
    EXPECT_TRUE(second.hit);
    ASSERT_EQ(completions.size(), 2u);
    EXPECT_TRUE(completions[1].second);
}

TEST_F(CacheFixture, FillsAllocateExclusiveWithoutSharers)
{
    accessAndRun(0x100);
    EXPECT_EQ(cache->lineState(0x100), CoherenceState::Exclusive);
}

TEST_F(CacheFixture, WriteMissAllocatesModified)
{
    accessAndRun(0x200, true);
    EXPECT_EQ(cache->lineState(0x200), CoherenceState::Modified);
}

TEST_F(CacheFixture, WriteHitOnExclusiveUpgradesSilently)
{
    accessAndRun(0x100, false);
    EXPECT_EQ(cache->lineState(0x100), CoherenceState::Exclusive);
    accessAndRun(0x100, true);
    EXPECT_EQ(cache->lineState(0x100), CoherenceState::Modified);
    EXPECT_DOUBLE_EQ(cache->stats().get("upgrades"), 0.0);
}

TEST_F(CacheFixture, LruEvictsOldestWay)
{
    Cache::Params cp;
    cp.sizeBytes = 2 * 1024;
    cp.assoc = 2;
    cp.lineBytes = 64; // 16 sets; set 0 at multiples of 1024
    rebuild(cp);

    accessAndRun(0 * 1024, false, 1);
    accessAndRun(1 * 1024, false, 2); // set full
    accessAndRun(0 * 1024, false, 3); // touch first -> second is LRU
    accessAndRun(2 * 1024, false, 4); // evicts 1 KB line
    EXPECT_EQ(cache->lineState(0), CoherenceState::Exclusive);
    EXPECT_EQ(cache->lineState(1024), CoherenceState::Invalid);
    EXPECT_EQ(cache->lineState(2048), CoherenceState::Exclusive);
}

TEST_F(CacheFixture, DirtyEvictionWritesBack)
{
    Cache::Params cp;
    cp.sizeBytes = 2 * 1024;
    cp.assoc = 2;
    rebuild(cp);

    accessAndRun(0, true, 1); // dirty
    accessAndRun(1024, false, 2);
    accessAndRun(2048, false, 3);
    accessAndRun(3072, false, 4); // evicts the dirty line
    eq->run();
    EXPECT_GE(cache->stats().get("writebacks"), 1.0);
    EXPECT_FALSE(cache->hasOutstanding());
}

TEST_F(CacheFixture, MshrCoalescesSameLineMisses)
{
    // Two accesses to the same line in the same cycle: one miss, one
    // coalesced target; a single bus fill serves both.
    auto o1 = cache->access(0x300, 4, false, 1, 0);
    auto o2 = cache->access(0x304, 4, false, 2, 0);
    EXPECT_EQ(o1.reject, Cache::Reject::None);
    EXPECT_EQ(o2.reject, Cache::Reject::Ports); // 1 port by default

    Cache::Params cp;
    cp.ports = 2;
    rebuild(cp);
    o1 = cache->access(0x300, 4, false, 1, 0);
    o2 = cache->access(0x304, 4, false, 2, 0);
    EXPECT_EQ(o2.reject, Cache::Reject::None);
    eq->run();
    EXPECT_EQ(completions.size(), 2u);
    EXPECT_DOUBLE_EQ(cache->stats().get("mshrCoalesced"), 1.0);
    EXPECT_DOUBLE_EQ(cache->stats().get("misses"), 2.0);
}

TEST_F(CacheFixture, MshrExhaustionRejects)
{
    Cache::Params cp;
    cp.mshrs = 2;
    cp.ports = 8;
    rebuild(cp);

    auto o1 = cache->access(0x1000, 4, false, 1, 0);
    auto o2 = cache->access(0x2000, 4, false, 2, 0);
    auto o3 = cache->access(0x3000, 4, false, 3, 0);
    EXPECT_EQ(o1.reject, Cache::Reject::None);
    EXPECT_EQ(o2.reject, Cache::Reject::None);
    EXPECT_EQ(o3.reject, Cache::Reject::Mshrs);
    eq->run();
}

TEST_F(CacheFixture, PortLimitResetsEachCycle)
{
    auto o1 = cache->access(0x100, 4, false, 1, 0);
    auto o2 = cache->access(0x200, 4, false, 2, 0);
    EXPECT_EQ(o1.reject, Cache::Reject::None);
    EXPECT_EQ(o2.reject, Cache::Reject::Ports);
    // Advance one cycle: the port budget replenishes.
    eq->schedule(busPeriod, [] {});
    while (eq->curTick() < busPeriod)
        eq->step();
    EXPECT_TRUE(cache->portAvailable());
}

TEST_F(CacheFixture, PerfectModeAlwaysHits)
{
    Cache::Params cp;
    cp.perfect = true;
    rebuild(cp);
    auto out = accessAndRun(0xdead00, false, 9);
    EXPECT_TRUE(out.hit);
    EXPECT_DOUBLE_EQ(cache->missRate(), 0.0);
}

TEST_F(CacheFixture, FlushRangeCountsDirtyLines)
{
    cache->prefill(0, 256, /*dirty=*/true); // 4 lines
    cache->prefill(256, 128, /*dirty=*/false);
    unsigned dirty = cache->flushRange(0, 384);
    EXPECT_EQ(dirty, 4u);
    EXPECT_EQ(cache->lineState(0), CoherenceState::Invalid);
    EXPECT_EQ(cache->lineState(256), CoherenceState::Invalid);
}

TEST_F(CacheFixture, InvalidateRangeDropsLines)
{
    cache->prefill(0, 256, true);
    unsigned count = cache->invalidateRange(0, 256);
    EXPECT_EQ(count, 4u);
    EXPECT_EQ(cache->lineState(64), CoherenceState::Invalid);
}

TEST_F(CacheFixture, AccessCrossingLineBoundaryPanics)
{
    EXPECT_DEATH(cache->access(62, 4, false, 1, 0), "crosses");
}

// The stride prefetcher, driven through the cache it fills.
struct PrefetchFixture : public CacheFixture
{
    PrefetchFixture()
    {
        Cache::Params cp;
        cp.prefetchEnabled = true;
        cp.prefetchDegree = 3;
        rebuild(cp);
    }

    /** One demand read on @p stream, run to quiescence. */
    void
    read(int stream, Addr addr)
    {
        ASSERT_EQ(cache->access(addr, 4, false, addr, stream).reject,
                  Cache::Reject::None);
        eq->run();
    }

    double prefetches() const { return cache->stats().get("prefetches"); }
};

TEST_F(PrefetchFixture, InterleavedStreamsKeepSeparateStrides)
{
    const Addr a = 0, b = 0x10000;
    read(0, a);
    read(1, b);
    read(0, a + 256);
    read(1, b + 128);
    // Each stream has seen one stride, not yet a repeat.
    EXPECT_DOUBLE_EQ(prefetches(), 0.0);

    read(0, a + 512);
    EXPECT_DOUBLE_EQ(prefetches(), 3.0);
    read(1, b + 256);
    EXPECT_DOUBLE_EQ(prefetches(), 6.0);

    // `degree` strides ahead of each stream, and no further.
    for (Addr ahead : {a + 768, a + 1024, a + 1280, b + 384, b + 512,
                       b + 640})
        EXPECT_EQ(cache->lineState(ahead), CoherenceState::Exclusive)
            << ahead;
    EXPECT_EQ(cache->lineState(a + 1536), CoherenceState::Invalid);
    EXPECT_EQ(cache->lineState(b + 768), CoherenceState::Invalid);
}

TEST_F(PrefetchFixture, ZeroStrideIssuesNothing)
{
    for (int i = 0; i < 4; ++i)
        read(0, 0x400);
    EXPECT_DOUBLE_EQ(prefetches(), 0.0);

    // A repeat of a confident stream's last address is no stride
    // either.
    read(1, 0x8000);
    read(1, 0x8100);
    read(1, 0x8200);
    EXPECT_DOUBLE_EQ(prefetches(), 3.0);
    read(1, 0x8200);
    EXPECT_DOUBLE_EQ(prefetches(), 3.0);
}

// Two caches on one bus: MOESI coherence.
struct CoherenceFixture : public ::testing::Test
{
    CoherenceFixture()
    {
        SystemBus::Params bp;
        bus = std::make_unique<SystemBus>(
            "bus", eq, ClockDomain(busPeriod), bp);
        dram = std::make_unique<DramCtrl>(
            "dram", eq, ClockDomain(busPeriod), *bus,
            DramCtrl::Params{});
        bus->setTarget(dram.get());
        a = std::make_unique<Cache>("cacheA", eq,
                                    ClockDomain(busPeriod), *bus,
                                    Cache::Params{});
        b = std::make_unique<Cache>("cacheB", eq,
                                    ClockDomain(busPeriod), *bus,
                                    Cache::Params{});
        a->setCallback([](std::uint64_t, bool) {});
        b->setCallback([](std::uint64_t, bool) {});
    }

    EventQueue eq;
    std::unique_ptr<SystemBus> bus;
    std::unique_ptr<DramCtrl> dram;
    std::unique_ptr<Cache> a, b;
};

TEST_F(CoherenceFixture, OwnerSuppliesDirtyDataOnReadShared)
{
    a->prefill(0x100, 64, /*dirty=*/true); // A holds M
    b->access(0x100, 4, false, 1, 0);
    eq.run();
    // A supplied the line and became Owned; B holds Shared.
    EXPECT_EQ(a->lineState(0x100), CoherenceState::Owned);
    EXPECT_EQ(b->lineState(0x100), CoherenceState::Shared);
    EXPECT_GE(bus->stats().get("cacheToCache"), 1.0);
}

TEST_F(CoherenceFixture, ReadExclusiveInvalidatesPeer)
{
    a->prefill(0x200, 64, /*dirty=*/true);
    b->access(0x200, 4, true, 1, 0);
    eq.run();
    EXPECT_EQ(a->lineState(0x200), CoherenceState::Invalid);
    EXPECT_EQ(b->lineState(0x200), CoherenceState::Modified);
}

TEST_F(CoherenceFixture, SharerPresenceDowngradesFillToShared)
{
    a->prefill(0x300, 64, /*dirty=*/false); // A holds E
    b->access(0x300, 4, false, 1, 0);
    eq.run();
    // A's E is demoted to S by the snoop; memory supplies; B gets S.
    EXPECT_EQ(a->lineState(0x300), CoherenceState::Shared);
    EXPECT_EQ(b->lineState(0x300), CoherenceState::Shared);
}

TEST_F(CoherenceFixture, UpgradeInvalidatesSharers)
{
    a->prefill(0x400, 64, false);
    b->access(0x400, 4, false, 1, 0); // B: S, A: S
    eq.run();
    ASSERT_EQ(b->lineState(0x400), CoherenceState::Shared);
    b->access(0x400, 4, true, 2, 0); // upgrade
    eq.run();
    EXPECT_EQ(b->lineState(0x400), CoherenceState::Modified);
    EXPECT_EQ(a->lineState(0x400), CoherenceState::Invalid);
    EXPECT_GE(b->stats().get("upgrades"), 1.0);
}

// ---------------------------------------------------------------
// TLB tests.
// ---------------------------------------------------------------

struct TlbFixture : public ::testing::Test
{
    TlbFixture()
        : tlb("tlb", eq, ClockDomain(busPeriod), AladdinTlb::Params{})
    {}
    EventQueue eq;
    AladdinTlb tlb;
};

TEST_F(TlbFixture, FirstTouchMissesThenHits)
{
    bool hit1 = tlb.translate(0x1234, [](Addr) {}).has_value();
    eq.run();
    bool hit2 = tlb.translate(0x1238, [](Addr) {}).has_value();
    EXPECT_FALSE(hit1);
    EXPECT_TRUE(hit2);
}

TEST_F(TlbFixture, MissPaysConfiguredLatency)
{
    Tick done = 0;
    tlb.translate(0x1000, [&](Addr) { done = eq.curTick(); });
    eq.run();
    EXPECT_EQ(done, 200 * tickPerNs);
}

TEST_F(TlbFixture, TranslationIsStableAndPageAligned)
{
    Addr p1 = 0;
    tlb.translate(0x1000, [&](Addr pa) { p1 = pa; });
    eq.run();
    std::optional<Addr> p2 = tlb.translate(0x1004, [](Addr) {});
    ASSERT_TRUE(p2.has_value());
    EXPECT_EQ(*p2, p1 + 4);
    EXPECT_EQ(tlb.translateFunctional(0x1000), p1);
}

TEST_F(TlbFixture, DistinctPagesGetDistinctFrames)
{
    Addr p1 = tlb.translateFunctional(0x0000);
    Addr p2 = tlb.translateFunctional(0x1000);
    EXPECT_NE(p1 / 4096, p2 / 4096);
}

TEST_F(TlbFixture, CapacityEvictionCausesRepeatMiss)
{
    // Touch 9 pages (capacity 8): page 0 must be evicted.
    for (Addr page = 0; page < 9; ++page) {
        tlb.translate(page * 4096, [](Addr) {});
        eq.run();
    }
    bool hit = tlb.translate(0, [](Addr) {}).has_value();
    EXPECT_FALSE(hit);
    eq.run();
    EXPECT_LT(tlb.hitRate(), 0.5);
}

// ---------------------------------------------------------------
// Scratchpad tests.
// ---------------------------------------------------------------

TEST(Scratchpad, PartitionPortsLimitPerCycleAccesses)
{
    EventQueue eq;
    Scratchpad spad("spad", eq, ClockDomain(busPeriod));
    Scratchpad::ArrayConfig cfg;
    cfg.name = "a";
    cfg.sizeBytes = 1024;
    cfg.wordBytes = 4;
    cfg.partitions = 2;
    cfg.portsPerPartition = 1;
    int id = spad.addArray(cfg);

    // Words 0 and 2 map to bank 0; word 1 maps to bank 1.
    EXPECT_TRUE(spad.tryAccess(id, 0, false));
    EXPECT_TRUE(spad.tryAccess(id, 4, false));
    EXPECT_FALSE(spad.tryAccess(id, 8, false)) << "bank 0 conflict";
    EXPECT_DOUBLE_EQ(spad.conflicts(), 1.0);

    // Next cycle the ports are free again.
    eq.schedule(busPeriod, [] {});
    while (eq.curTick() < busPeriod)
        eq.step();
    EXPECT_TRUE(spad.tryAccess(id, 8, false));
}

TEST(Scratchpad, MorePartitionsMoreBandwidth)
{
    EventQueue eq;
    Scratchpad spad("spad", eq, ClockDomain(busPeriod));
    Scratchpad::ArrayConfig cfg;
    cfg.name = "a";
    cfg.sizeBytes = 1024;
    cfg.wordBytes = 4;
    cfg.partitions = 8;
    int id = spad.addArray(cfg);
    unsigned granted = 0;
    for (unsigned w = 0; w < 8; ++w)
        granted += spad.tryAccess(id, w * 4, false) ? 1 : 0;
    EXPECT_EQ(granted, 8u);
    EXPECT_EQ(spad.peakAccessesPerCycle(), 8u);
}

TEST(Scratchpad, TracksPerArrayCounts)
{
    EventQueue eq;
    Scratchpad spad("spad", eq, ClockDomain(busPeriod));
    Scratchpad::ArrayConfig cfg;
    cfg.name = "a";
    cfg.sizeBytes = 64;
    cfg.wordBytes = 4;
    cfg.partitions = 16;
    int a = spad.addArray(cfg);
    cfg.name = "b";
    int b = spad.addArray(cfg);
    spad.tryAccess(a, 0, false);
    spad.tryAccess(a, 4, true);
    spad.tryAccess(b, 0, true);
    EXPECT_EQ(spad.arrayReads(a), 1u);
    EXPECT_EQ(spad.arrayWrites(a), 1u);
    EXPECT_EQ(spad.arrayWrites(b), 1u);
    EXPECT_EQ(spad.totalBytes(), 128u);
}

TEST(Scratchpad, PerArrayCountsRejectABadArrayId)
{
    EventQueue eq;
    Scratchpad spad("spad", eq, ClockDomain(busPeriod));
    Scratchpad::ArrayConfig cfg;
    cfg.name = "a";
    cfg.sizeBytes = 64;
    int a = spad.addArray(cfg);
    EXPECT_DEATH(spad.arrayReads(a + 1), "bad scratchpad array id");
    EXPECT_DEATH(spad.arrayWrites(-1), "bad scratchpad array id");
}

TEST(Scratchpad, BankAccessReportsTheLastPort)
{
    EventQueue eq;
    Scratchpad spad("spad", eq, ClockDomain(busPeriod));
    Scratchpad::ArrayConfig cfg;
    cfg.name = "a";
    cfg.sizeBytes = 64;
    cfg.portsPerPartition = 2;
    int a = spad.addArray(cfg);
    using Access = Scratchpad::Access;
    EXPECT_EQ(spad.tryAccessBank(a, 0, false), Access::Granted);
    EXPECT_EQ(spad.tryAccessBank(a, 0, true), Access::LastPort);
    EXPECT_EQ(spad.tryAccessBank(a, 0, false), Access::Conflict);
    // The caller counts bank-path conflicts itself.
    EXPECT_DOUBLE_EQ(spad.conflicts(), 0.0);
    spad.recordConflicts(3);
    EXPECT_DOUBLE_EQ(spad.conflicts(), 3.0);
}

// ---------------------------------------------------------------
// Full/empty bits.
// ---------------------------------------------------------------

TEST(FullEmpty, BitsStartEmptyAndFill)
{
    FullEmptyBits fe("fe", 64);
    int a = fe.addArray(256);
    EXPECT_FALSE(fe.isFull(a, 0));
    fe.fill(a, 0, 64);
    EXPECT_TRUE(fe.isFull(a, 0));
    EXPECT_TRUE(fe.isFull(a, 63));
    EXPECT_FALSE(fe.isFull(a, 64));
}

TEST(FullEmpty, GranularityIsAPowerOfTwo)
{
    // A bit's chunk is a shift of the offset.
    EXPECT_THROW(FullEmptyBits("fe", 0), FatalError);
    EXPECT_THROW(FullEmptyBits("fe", 48), FatalError);
    FullEmptyBits fe("fe", 32);
    EXPECT_EQ(fe.chunkOf(95), 2u);
    EXPECT_EQ(fe.chunkOf(96), 3u);
}

TEST(FullEmpty, WaitersWokenOnFill)
{
    FullEmptyBits fe("fe", 64);
    int a = fe.addArray(256);
    int woken = 0;
    fe.wait(a, 128, [&] { ++woken; });
    fe.wait(a, 130, [&] { ++woken; });
    fe.fill(a, 0, 128);
    EXPECT_EQ(woken, 0);
    fe.fill(a, 128, 64);
    EXPECT_EQ(woken, 2);
}

TEST(FullEmpty, RefillDoesNotRewake)
{
    FullEmptyBits fe("fe", 64);
    int a = fe.addArray(128);
    int woken = 0;
    fe.wait(a, 0, [&] { ++woken; });
    fe.fill(a, 0, 64);
    fe.fill(a, 0, 64);
    EXPECT_EQ(woken, 1);
}

TEST(FullEmpty, SetAllFull)
{
    FullEmptyBits fe("fe", 64);
    int a = fe.addArray(4096);
    fe.setAllFull();
    EXPECT_TRUE(fe.isFull(a, 4095));
    EXPECT_EQ(fe.storageBits(), 64u);
}

} // namespace
} // namespace genie
