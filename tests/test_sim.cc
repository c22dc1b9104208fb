/**
 * @file
 * Unit tests for the simulation kernel: event queue ordering, clock
 * conversions, statistics, and the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <map>
#include <queue>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace tss
{
namespace
{

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameCycleIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, PriorityBreaksTies)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(2); }, 1);
    eq.schedule(5, [&] { order.push_back(1); }, -1);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        eq.scheduleIn(4, [&] { fired = static_cast<int>(eq.now()); });
    });
    eq.run();
    EXPECT_EQ(fired, 5);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    int count = 0;
    for (Cycle c = 1; c <= 10; ++c)
        eq.schedule(c * 10, [&] { ++count; });
    eq.runUntil(50);
    EXPECT_EQ(count, 5);
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_EQ(count, 10);
}

TEST(EventQueue, RunHonorsMaxEvents)
{
    EventQueue eq;
    int count = 0;
    for (int i = 0; i < 100; ++i)
        eq.schedule(i, [&] { ++count; });
    EXPECT_EQ(eq.run(10), 10u);
    EXPECT_EQ(count, 10);
}

TEST(EventQueue, StationBreaksTiesBeforeSeq)
{
    // Same cycle, same priority: lower station id fires first, even
    // when the higher station scheduled earlier (got a lower seq).
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleStation(5, 7, [&] { order.push_back(7); });
    eq.scheduleStation(5, 2, [&] { order.push_back(2); });
    eq.scheduleStation(5, 4, [&] { order.push_back(4); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{2, 4, 7}));
}

TEST(EventQueue, SameStationSameCycleIsFifo)
{
    // The per-station sequence number preserves program order among
    // one station's same-cycle events, independent of how events of
    // other stations interleave in the heap.
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i) {
        eq.scheduleStation(9, 3, [&order, i] { order.push_back(i); });
        eq.scheduleStation(9, 11, [&order, i] {
            order.push_back(100 + i);
        });
    }
    eq.run();
    ASSERT_EQ(order.size(), 16u);
    // All of station 3 before any of station 11, each FIFO.
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(order[i], i);
        EXPECT_EQ(order[8 + i], 100 + i);
    }
}

TEST(EventQueue, AnonymousStationKeepsGlobalFifo)
{
    // schedule() shares station -1; its seq is the historical global
    // FIFO counter, and it sorts before every real (>= 0) station.
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleStation(5, 0, [&] { order.push_back(10); });
    eq.schedule(5, [&] { order.push_back(1); });
    eq.schedule(5, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 10}));
}

TEST(EventQueue, SequencesAreIndependentPerStation)
{
    // Seqs are allocated per station: a burst from one station must
    // not advance another's counter (cross-station collisions of the
    // (when, priority, station, seq) key would break determinism and
    // trip the duplicate-key assert in step()).
    EventQueue eq;
    std::vector<std::pair<int, int>> order;
    for (int i = 0; i < 3; ++i)
        eq.scheduleStation(1, 0, [&order, i] {
            order.emplace_back(0, i);
        });
    eq.scheduleStation(1, 1, [&order] { order.emplace_back(1, 0); });
    for (int i = 3; i < 5; ++i)
        eq.scheduleStation(1, 0, [&order, i] {
            order.emplace_back(0, i);
        });
    eq.run();
    EXPECT_EQ(order,
              (std::vector<std::pair<int, int>>{
                  {0, 0}, {0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 0}}));
}

TEST(EventQueue, NextTimeTracksEarliestPending)
{
    EventQueue eq;
    EXPECT_EQ(eq.nextTime(), invalidCycle);
    eq.schedule(40, [] {});
    eq.schedule(15, [] {});
    EXPECT_EQ(eq.nextTime(), 15u);
    eq.step();
    EXPECT_EQ(eq.nextTime(), 40u);
    eq.step();
    EXPECT_EQ(eq.nextTime(), invalidCycle);
}

/**
 * Reference model of the event order: one binary heap over
 * (cycle, priority, station, per-station sequence) — the comparator
 * of the queue before it became a calendar queue.
 */
class ReferenceQueue
{
  public:
    struct Key
    {
        Cycle when;
        std::uint64_t seq;
        int priority;
        std::int32_t station;
        int id;
    };

    void
    schedule(Cycle when, std::int32_t station, int priority, int id)
    {
        heap.push(Key{when, seqOf[station]++, priority, station, id});
    }

    Key
    pop()
    {
        Key top = heap.top();
        heap.pop();
        return top;
    }

    Cycle
    nextTime() const
    {
        return heap.empty() ? invalidCycle : heap.top().when;
    }

    std::size_t size() const { return heap.size(); }
    bool empty() const { return heap.empty(); }

  private:
    struct Later
    {
        bool
        operator()(const Key &a, const Key &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.priority != b.priority)
                return a.priority > b.priority;
            if (a.station != b.station)
                return a.station > b.station;
            return a.seq > b.seq;
        }
    };

    std::priority_queue<Key, std::vector<Key>, Later> heap;
    std::map<std::int32_t, std::uint64_t> seqOf;
};

/**
 * Seeded random schedules run through the EventQueue and the
 * reference heap in lockstep: every event, when it fires, pops the
 * reference and checks it is the same event at the same cycle, then
 * schedules random children into both — same-cycle bursts, events at
 * the current cycle, short hops and delays beyond the calendar ring's
 * span (so overflow events migrate), over mixed priorities and
 * stations including the anonymous one.
 */
class QueueDifferential
{
  public:
    explicit QueueDifferential(std::uint64_t seed) : rng(seed) {}

    void
    schedule(Cycle when)
    {
        auto station = static_cast<std::int32_t>(rng.rangeInclusive(-1, 5));
        auto priority = static_cast<int>(rng.rangeInclusive(-1, 2));
        int id = nextId++;
        ref.schedule(when, station, priority, id);
        eq.scheduleStation(when, station, [this, id] { fire(id); },
                           priority);
    }

    /** Schedule a burst of @p n events at one cycle. */
    void
    burst(Cycle when, unsigned n)
    {
        for (unsigned i = 0; i < n; ++i)
            schedule(when);
    }

    /** Queue-level observables must agree between events. */
    void
    expectSameState() const
    {
        ASSERT_EQ(eq.nextTime(), ref.nextTime());
        ASSERT_EQ(eq.size(), ref.size());
        ASSERT_EQ(eq.empty(), ref.empty());
    }

    EventQueue eq;
    ReferenceQueue ref;
    Rng rng;
    std::uint64_t fired = 0;
    std::uint64_t mismatches = 0;

  private:
    /** Delay of a child event: now, short, or past the ring span. */
    Cycle
    childDelay()
    {
        std::uint64_t kind = rng.range(10);
        if (kind < 2)
            return 0;
        if (kind < 7)
            return rng.range(20);
        if (kind < 9)
            return rng.range(EventQueue::ringBuckets * 2);
        return EventQueue::ringBuckets + rng.range(1000);
    }

    void
    fire(int id)
    {
        ++fired;
        ReferenceQueue::Key expect = ref.pop();
        if (expect.id != id || expect.when != eq.now())
            ++mismatches;
        EXPECT_EQ(eq.size(), ref.size());
        // 0.9 children per event on average, plus rare bursts.
        std::uint64_t kids = rng.range(10) < 5 ? 1 : rng.range(2) * 2;
        if (kids == 2 && rng.chance(0.2))
            kids = 0;
        for (std::uint64_t k = 0; k < kids; ++k)
            schedule(eq.now() + childDelay());
        if (rng.chance(0.01))
            burst(eq.now() + childDelay(), 2 + rng.range(16));
    }

    int nextId = 0;
};

TEST(EventQueue, CalendarMatchesReferenceHeap)
{
    for (std::uint64_t seed : {1, 2, 3, 4, 5}) {
        QueueDifferential d(seed);
        d.burst(0, 20);
        for (Cycle t = 0; t < 300; ++t)
            d.schedule(d.rng.range(2000));
        d.expectSameState();
        for (int round = 0; round < 4000 && !d.eq.empty(); ++round) {
            if (d.rng.chance(0.2)) {
                // runUntil: everything at or below the limit fires,
                // nothing beyond it.
                Cycle limit = d.eq.now() + d.rng.range(150);
                std::uint64_t before = d.fired;
                std::uint64_t n = d.eq.runUntil(limit);
                EXPECT_EQ(n, d.fired - before);
                EXPECT_TRUE(d.ref.empty() || d.ref.nextTime() > limit);
            } else {
                ASSERT_TRUE(d.eq.step());
            }
            d.expectSameState();
            if (d.eq.size() < 20)
                d.burst(d.eq.now() + d.rng.range(300), 30);
        }
        EXPECT_EQ(d.mismatches, 0u) << "seed " << seed;
        EXPECT_GT(d.fired, 10000u) << "seed " << seed;
        EXPECT_EQ(d.eq.executed(), d.fired);
    }
}

TEST(Clock, ConvertsPaperConstants)
{
    // 3.2 GHz: 1 us = 3200 cycles; 58 ns ~ 186 cycles.
    EXPECT_EQ(defaultClock.usToCycles(1.0), 3200u);
    EXPECT_EQ(defaultClock.nsToCycles(58.0), 186u);
    EXPECT_DOUBLE_EQ(defaultClock.cyclesToNs(3200), 1000.0);
    EXPECT_DOUBLE_EQ(defaultClock.cyclesToUs(3200), 1.0);
}

TEST(Clock, RoundTripIsStable)
{
    Clock clk(2.66);
    for (double ns : {1.0, 700.0, 2500.0}) {
        Cycle cycles = clk.nsToCycles(ns);
        EXPECT_NEAR(clk.cyclesToNs(cycles), ns, 0.5);
    }
}

TEST(Stats, DistributionPercentiles)
{
    Distribution d;
    for (int i = 1; i <= 100; ++i)
        d.sample(i);
    EXPECT_DOUBLE_EQ(d.min(), 1.0);
    EXPECT_DOUBLE_EQ(d.max(), 100.0);
    EXPECT_DOUBLE_EQ(d.mean(), 50.5);
    EXPECT_NEAR(d.median(), 50.0, 1.0);
    EXPECT_NEAR(d.percentile(95), 95.0, 1.0);
    EXPECT_EQ(d.count(), 100u);
}

TEST(Stats, DistributionInterleavedSampleAndQuery)
{
    Distribution d;
    d.sample(10);
    EXPECT_DOUBLE_EQ(d.median(), 10.0);
    d.sample(20);
    d.sample(30);
    EXPECT_DOUBLE_EQ(d.median(), 20.0); // re-sorts after new samples
}

TEST(Stats, TimeWeightedAverage)
{
    TimeWeighted tw;
    tw.update(0, 2.0);   // value 2 over [0, 10)
    tw.update(10, 6.0);  // value 6 over [10, 20)
    EXPECT_DOUBLE_EQ(tw.average(20), 4.0);
    EXPECT_DOUBLE_EQ(tw.maximum(), 6.0);
    EXPECT_DOUBLE_EQ(tw.value(), 6.0);
}

TEST(Stats, TimeWeightedDeltaTracking)
{
    TimeWeighted tw;
    tw.add(0, +1);
    tw.add(0, +1);
    tw.add(50, -1);
    EXPECT_DOUBLE_EQ(tw.average(100), (2.0 * 50 + 1.0 * 50) / 100);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        double v = rng.uniform(5.0, 9.0);
        ASSERT_GE(v, 5.0);
        ASSERT_LT(v, 9.0);
    }
}

TEST(Rng, NormalMoments)
{
    Rng rng(11);
    double sum = 0, sq = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        double v = rng.normal(10.0, 2.0);
        sum += v;
        sq += v * v;
    }
    double mean = sum / n;
    double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 10.0, 0.05);
    EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(Rng, TruncNormalRespectsFloor)
{
    Rng rng(13);
    for (int i = 0; i < 10000; ++i)
        ASSERT_GE(rng.truncNormal(10.0, 5.0, 8.0), 8.0);
}

TEST(Types, TaskIdEqualityAndHash)
{
    TaskId a{1, 17, 3};
    TaskId b{1, 17, 3};
    TaskId c{1, 17, 4}; // different generation
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_EQ(std::hash<TaskId>()(a), std::hash<TaskId>()(b));
    EXPECT_EQ(toString(a), "<1,17>");

    OperandId op{a, 0};
    EXPECT_EQ(toString(op), "<1,17,0>");
    EXPECT_FALSE(TaskId{}.valid());
    EXPECT_TRUE(a.valid());
}

} // namespace
} // namespace tss
