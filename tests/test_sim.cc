/**
 * @file
 * Unit tests for the simulation kernel: event queue ordering and
 * cancellation, clock domains, interval-set algebra, stats, RNG
 * determinism, and logging.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/clocked.hh"
#include "sim/event_queue.hh"
#include "sim/interval_set.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/stats.hh"

namespace genie
{
namespace
{

TEST(EventQueue, StartsAtTickZeroAndEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.nextTick(), maxTick);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, FifoOrderForEqualTicks)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    std::function<void()> chain = [&] {
        ++fired;
        if (fired < 5)
            eq.scheduleIn(10, chain);
    };
    eq.scheduleIn(10, chain);
    eq.run();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(eq.curTick(), 50u);
}

TEST(EventQueue, DescheduleCancelsEvent)
{
    EventQueue eq;
    bool ran = false;
    EventId id = eq.schedule(10, [&] { ran = true; });
    eq.deschedule(id);
    eq.run();
    EXPECT_FALSE(ran);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, DescheduleIsIdempotent)
{
    EventQueue eq;
    EventId id = eq.schedule(10, [] {});
    eq.deschedule(id);
    eq.deschedule(id); // no crash, no effect
    eq.run();
    SUCCEED();
}

TEST(EventQueue, RunUntilStopsAtBoundary)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(10, [&] { ++count; });
    eq.schedule(20, [&] { ++count; });
    eq.schedule(30, [&] { ++count; });
    eq.run(20);
    EXPECT_EQ(count, 2);
    EXPECT_EQ(eq.curTick(), 20u);
    eq.run();
    EXPECT_EQ(count, 3);
}

TEST(EventQueue, CountsExecutedEvents)
{
    EventQueue eq;
    for (int i = 0; i < 17; ++i)
        eq.schedule(static_cast<Tick>(i), [] {});
    eq.run();
    EXPECT_EQ(eq.numExecuted(), 17u);
}

TEST(Clocked, CycleTickConversions)
{
    EventQueue eq;
    Clocked c(eq, ClockDomain::fromMhz(100)); // 10 ns period
    EXPECT_EQ(c.clockPeriod(), 10000u);
    EXPECT_EQ(c.cyclesToTicks(3), 30000u);
    EXPECT_EQ(c.ticksToCycles(10000), 1u);
    EXPECT_EQ(c.ticksToCycles(10001), 2u);
}

TEST(Clocked, ClockEdgeAlignment)
{
    EventQueue eq;
    Clocked c(eq, ClockDomain::fromMhz(100));
    // At tick 0, edge 0 is now.
    EXPECT_EQ(c.clockEdge(0), 0u);
    EXPECT_EQ(c.clockEdge(2), 20000u);
    // Advance to an off-edge tick.
    eq.schedule(10500, [] {});
    eq.run();
    EXPECT_EQ(c.clockEdge(0), 20000u);
    EXPECT_EQ(c.clockEdge(1), 30000u);
}

TEST(Clocked, RejectsZeroPeriod)
{
    EXPECT_THROW(ClockDomain(0), FatalError);
}

TEST(IntervalSet, MeasureAndMerge)
{
    IntervalSet s;
    s.add(10, 20);
    s.add(15, 30);
    s.add(40, 50);
    EXPECT_EQ(s.measure(), 30u);
    EXPECT_EQ(s.intervals().size(), 2u);
    EXPECT_EQ(s.lo(), 10u);
    EXPECT_EQ(s.hi(), 50u);
}

TEST(IntervalSet, EmptyIntervalsIgnored)
{
    IntervalSet s;
    s.add(10, 10);
    s.add(20, 15);
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.measure(), 0u);
}

TEST(IntervalSet, Intersection)
{
    IntervalSet a, b;
    a.add(0, 100);
    b.add(50, 150);
    b.add(200, 300);
    auto c = a.intersectWith(b);
    EXPECT_EQ(c.measure(), 50u);
    EXPECT_EQ(c.lo(), 50u);
    EXPECT_EQ(c.hi(), 100u);
}

TEST(IntervalSet, Subtraction)
{
    IntervalSet a, b;
    a.add(0, 100);
    b.add(20, 30);
    b.add(50, 60);
    auto c = a.subtract(b);
    EXPECT_EQ(c.measure(), 80u);
    EXPECT_EQ(c.intervals().size(), 3u);
}

TEST(IntervalSet, SubtractAll)
{
    IntervalSet a, b;
    a.add(10, 20);
    b.add(0, 100);
    EXPECT_EQ(a.subtract(b).measure(), 0u);
}

TEST(IntervalSet, UnionWith)
{
    IntervalSet a, b;
    a.add(0, 10);
    b.add(5, 20);
    b.add(30, 40);
    auto c = a.unionWith(b);
    EXPECT_EQ(c.measure(), 30u);
}

TEST(IntervalSet, Contains)
{
    IntervalSet s;
    s.add(10, 20);
    EXPECT_FALSE(s.contains(9));
    EXPECT_TRUE(s.contains(10));
    EXPECT_TRUE(s.contains(19));
    EXPECT_FALSE(s.contains(20));
}

TEST(Stats, RegistersAndDumps)
{
    StatGroup g("unit");
    Stat &a = g.add("alpha", "first stat");
    Stat &b = g.add("beta", "second stat");
    a += 2.5;
    ++b;
    EXPECT_DOUBLE_EQ(g.get("alpha"), 2.5);
    EXPECT_DOUBLE_EQ(g.get("beta"), 1.0);
    EXPECT_EQ(g.find("gamma"), nullptr);
    EXPECT_DOUBLE_EQ(g.get("gamma"), 0.0);
    g.resetAll();
    EXPECT_DOUBLE_EQ(g.get("alpha"), 0.0);
}

TEST(Stats, StatNamesArePrefixed)
{
    StatGroup g("cache0");
    Stat &s = g.add("hits", "hits");
    EXPECT_EQ(s.name(), "cache0.hits");
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, RealInUnitInterval)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        double v = r.real();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, BelowRespectsBound)
{
    Rng r(9);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Logging, FatalThrows)
{
    EXPECT_THROW(fatal("bad config value %d", 3), FatalError);
}

TEST(Logging, FormatProducesMessage)
{
    EXPECT_EQ(format("x=%d y=%s", 3, "q"), "x=3 y=q");
}

TEST(Types, AlignHelpers)
{
    EXPECT_EQ(alignDown(0x1234, 0x100), 0x1200u);
    EXPECT_EQ(alignUp(0x1234, 0x100), 0x1300u);
    EXPECT_EQ(alignUp(0x1200, 0x100), 0x1200u);
    EXPECT_EQ(divCeil(10, 3), 4u);
    EXPECT_EQ(divCeil(9, 3), 3u);
    EXPECT_TRUE(isPowerOf2(64));
    EXPECT_FALSE(isPowerOf2(96));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_EQ(floorLog2(64), 6u);
}

TEST(Types, PeriodFromMhz)
{
    EXPECT_EQ(periodFromMhz(100), 10000u); // 10 ns
    EXPECT_EQ(periodFromMhz(1000), 1000u); // 1 ns
}

// --- genie-verify: EventQueue edge cases and payload lifetime -------

TEST(EventQueueEdge, DescheduleOfAlreadyFiredIdIsNoOp)
{
    EventQueue eq;
    int fired = 0;
    EventId id = eq.schedule(5, [&] { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 1);
    eq.deschedule(id); // must not underflow counters or double free
    eq.deschedule(id);
    EXPECT_EQ(eq.size(), 0u);
    EXPECT_EQ(eq.allocatedEntries(), 0u);
}

TEST(EventQueueEdge, DescheduleOwnIdFromInsideActionIsNoOp)
{
    EventQueue eq;
    int fired = 0;
    EventId id = invalidEventId;
    id = eq.schedule(5, [&] {
        ++fired;
        eq.deschedule(id); // the entry is already retired
    });
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.allocatedEntries(), 0u);
}

TEST(EventQueueEdge, ScheduleAtCurTickFromInsideRunningEvent)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] {
        order.push_back(1);
        // Same-tick schedule from inside a running event must fire in
        // this run, after the current event (FIFO at equal ticks).
        eq.schedule(eq.curTick(), [&] { order.push_back(2); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(eq.curTick(), 10u);
}

TEST(EventQueueEdge, ScheduleAtCurTickFiresEvenAtRunBoundary)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { eq.schedule(10, [&] { ++fired; }); });
    eq.run(10); // boundary tick: events at exactly `until` execute
    EXPECT_EQ(fired, 1);
}

TEST(EventQueueEdge, TieBreakIsFifoAcross1000SameTickEvents)
{
    EventQueue eq;
    std::vector<int> order;
    order.reserve(1000);
    for (int i = 0; i < 1000; ++i)
        eq.schedule(42, [&order, i] { order.push_back(i); });
    // Interleave some earlier and later events so heap churn cannot
    // perturb the same-tick sequence.
    eq.schedule(41, [] {});
    eq.schedule(43, [] {});
    eq.run();
    ASSERT_EQ(order.size(), 1000u);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueueEdge, EntryAccountingClosesUnderDescheduleRunInterleaving)
{
    EventQueue eq;
    std::vector<EventId> ids;
    for (int round = 0; round < 10; ++round) {
        for (int i = 0; i < 20; ++i) {
            Tick when = static_cast<Tick>(round * 100 + i);
            ids.push_back(eq.schedule(when, [] {}));
        }
        // Cancel every third event, including some already fired.
        for (std::size_t i = 0; i < ids.size(); i += 3)
            eq.deschedule(ids[i]);
        eq.run(static_cast<Tick>(round * 100 + 10));
        // Cancelled entries stay in the heap until they reach its
        // top, but there are never fewer entries than live events.
        EXPECT_GE(eq.allocatedEntries(), eq.size());
    }
    eq.run();
    EXPECT_EQ(eq.size(), 0u);
    // Once drained, every cancelled entry has left the heap.
    EXPECT_EQ(eq.allocatedEntries(), 0u);
    eq.checkDrained();
}

TEST(EventQueueEdge, DestructorFreesCancelledAndPendingEntries)
{
    // Destroying a queue with a mix of live and cancelled events must
    // free every entry and payload (ASan builds prove it).
    EventQueue eq;
    std::vector<EventId> ids;
    for (int i = 0; i < 50; ++i)
        ids.push_back(eq.schedule(static_cast<Tick>(i), [] {}));
    for (std::size_t i = 0; i < ids.size(); i += 2)
        eq.deschedule(ids[i]);
    eq.run(10);
    EXPECT_GT(eq.allocatedEntries(), 0u);
    // dtor runs here
}

TEST(EventQueueEdge, DescheduledActionReleasesCapturesBeforeRun)
{
    EventQueue eq;
    auto token = std::make_shared<int>(7);
    int fired = 0;
    EventId id = eq.schedule(5, [token, &fired] { ++fired; });
    EXPECT_EQ(token.use_count(), 2);
    eq.deschedule(id);
    // The payload is freed at deschedule(), not when the cancelled
    // entry later reaches the top of the heap.
    EXPECT_EQ(token.use_count(), 1);
    eq.run();
    EXPECT_EQ(fired, 0);
}

TEST(EventQueueEdge, DestructionReleasesCapturesOfPendingEvents)
{
    auto token = std::make_shared<int>(7);
    {
        EventQueue eq;
        eq.schedule(5, [token] {});
        eq.schedule(6, [token] {});
        eq.schedule(1, [] {});
        eq.run(2);
        EXPECT_EQ(token.use_count(), 3);
    }
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueueEdge, ActionThatGrowsThePayloadTableRunsInOrder)
{
    EventQueue eq;
    std::vector<int> order;
    // Two references fit std::function's inline buffer, so this
    // action's captures live inside the payload table. Scheduling
    // 1000 more std::function events from inside it grows (and so
    // reallocates) that table while it runs; the captures must
    // still be valid afterwards.
    eq.schedule(1, [&eq, &order] {
        for (int i = 0; i < 1000; ++i)
            eq.schedule(2, [&order, i] { order.push_back(i); });
        order.push_back(-1);
        eq.schedule(3, [&order] { order.push_back(1000); });
    });
    eq.run();
    ASSERT_EQ(order.size(), 1002u);
    EXPECT_EQ(order.front(), -1);
    for (int i = 0; i <= 1000; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i) + 1], i);
    EXPECT_EQ(eq.numExecuted(), 1002u);
}

TEST(EventQueueEdge, DescheduleOfNeverIssuedIdIsNoOp)
{
    EventQueue eq;
    int fired = 0;
    EventId a = eq.schedule(5, [&] { ++fired; });
    EventId b = eq.schedule(6, [&] { ++fired; });
    // Ids past the last one issued, including the very next one.
    eq.deschedule(b + 1);
    eq.deschedule(a + 1000);
    EXPECT_EQ(eq.size(), 2u);
    EventId c = eq.schedule(7, [&] { ++fired; });
    EXPECT_EQ(c, b + 1);
    eq.run();
    EXPECT_EQ(fired, 3);
}

TEST(EventQueueEdgeDeath, RawScheduleWithNullHandlerPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EventQueue eq;
    EXPECT_DEATH(eq.scheduleRaw(5, nullptr, nullptr, 0), "null handler");
}

TEST(EventQueueEdgeDeath, CheckDrainedPanicsOnLiveEvents)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EventQueue eq;
    eq.schedule(5, [] {});
    EXPECT_DEATH(eq.checkDrained(), "not drained");
}

TEST(EventQueueEdgeDeath, SchedulingInThePastPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(5, [] {}), "in the past");
}

} // namespace
} // namespace genie
