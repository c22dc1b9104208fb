/**
 * @file
 * The windowed engine (sim/sim_engine.hh): cross-domain delivery
 * timing at the lookahead boundary and one cycle to either side, the
 * conservative floor on below-window deliveries, the one tagged queue
 * against a per-domain reference drain, the in-window cross-domain
 * schedule check, golden System results and window counters over
 * topology/placement/batching configs, independence of concurrently
 * simulating Systems, and allocation-free warm barriers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/system.hh"
#include "driver/experiment.hh"
#include "noc/network.hh"
#include "noc/topology.hh"
#include "sim/random.hh"
#include "sim/sim_engine.hh"
#include "workload/builder.hh"

/// Every global operator new of this test binary, counted so a test
/// can assert a code path performs no heap allocation. All plain and
/// nothrow forms are replaced together so every delete matches.
static std::atomic<std::uint64_t> globalNews{0};

static void *
countedAlloc(std::size_t bytes) noexcept
{
    globalNews.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(bytes == 0 ? 1 : bytes);
}

void *
operator new(std::size_t bytes)
{
    if (void *p = countedAlloc(bytes))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t bytes)
{
    if (void *p = countedAlloc(bytes))
        return p;
    throw std::bad_alloc();
}

void *
operator new(std::size_t bytes, const std::nothrow_t &) noexcept
{
    return countedAlloc(bytes);
}

void *
operator new[](std::size_t bytes, const std::nothrow_t &) noexcept
{
    return countedAlloc(bytes);
}

// GCC cannot tell these replacements pair with the ones above.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
#pragma GCC diagnostic pop

namespace tss
{
namespace
{

/** Endpoint recording (arrival cycle, source) pairs. */
class Recorder : public Endpoint
{
  public:
    explicit Recorder(EventQueue &queue) : eq(queue) {}

    void
    receive(MessagePtr msg) override
    {
        log.emplace_back(eq.now(), msg->src);
    }

    EventQueue &eq;
    std::vector<std::pair<Cycle, NodeId>> log;
};

/**
 * One cross-domain send through a fresh two-domain engine: an event
 * at cycle @p inject on domain 0 (station 0) injects a @p bytes
 * message to station 1 (domain 1). Returns the delivery cycle.
 * SimpleNetwork's delay is latency + ceil(bytes/16), so bytes picks
 * the delivery relative to the lookahead L = latency + 1:
 * 0 bytes = L - 1 (below the window), 16 = exactly L, 17 = L + 1.
 */
Cycle
deliverOnce(Cycle inject, Bytes bytes)
{
    constexpr Cycle latency = 4;
    SimEngine engine(2);
    EventQueue &q = engine.queue();
    SimpleNetwork net("net", q, latency);
    engine.setLookahead(net.minDeliveryDelay());

    Recorder sink(q);
    net.attach(1, sink);
    q.setDomain(1, 1);

    q.scheduleStation(inject, 0, [&net, bytes] {
        net.send(std::make_unique<Message>(0, 1, bytes));
    });
    engine.run();

    EXPECT_TRUE(engine.empty());
    EXPECT_EQ(sink.log.size(), 1u);
    return sink.log.empty() ? invalidCycle : sink.log[0].first;
}

TEST(SimEngine, DeliveryAtLookaheadBoundaryIsExact)
{
    // 16 bytes serialize in 1 cycle: delivery = inject + latency + 1,
    // exactly the window end — legal (the window is half-open) and
    // must not be disturbed by the conservative floor.
    EXPECT_EQ(deliverOnce(10, 16), 15u);
}

TEST(SimEngine, DeliveryOneCyclePastBoundaryIsExact)
{
    // 17 bytes serialize in 2 cycles: one past the window end.
    EXPECT_EQ(deliverOnce(10, 17), 16u);
}

TEST(SimEngine, BelowWindowDeliveryIsFlooredAtWindowEnd)
{
    // A zero-byte message serializes in 0 cycles and would arrive one
    // cycle *inside* the window that already drained. The engine's
    // conservative floor lifts it to the window end.
    EXPECT_EQ(deliverOnce(10, 0), 15u);
}

TEST(SimEngine, CrossDomainPingPongMatchesOneQueue)
{
    // Two stations bounce a message back and forth. On a two-domain
    // engine every bounce crosses the window barrier; on one bare
    // queue (no engine, sends route immediately) none does. Messages
    // of at least one lookahead never hit the floor, so the complete
    // arrival logs, final times and event counts must agree.
    struct Bouncer : Endpoint
    {
        Network *net = nullptr;
        NodeId self = 0;
        int remaining = 8;
        std::vector<std::pair<Cycle, NodeId>> log;
        EventQueue *eq = nullptr;

        void
        receive(MessagePtr msg) override
        {
            log.emplace_back(eq->now(), msg->src);
            if (remaining-- <= 0)
                return;
            net->send(std::make_unique<Message>(self, msg->src, 16));
        }
    };
    constexpr Cycle latency = 3;
    auto play = [](EventQueue &q, Network &net,
                   const std::function<void()> &run) {
        Bouncer a, b;
        a.net = b.net = &net;
        a.self = 0;
        b.self = 1;
        a.eq = b.eq = &q;
        net.attach(0, a);
        net.attach(1, b);
        q.scheduleStation(1, 0, [&net] {
            net.send(std::make_unique<Message>(0, 1, 16));
        });
        run();
        auto log = a.log;
        log.insert(log.end(), b.log.begin(), b.log.end());
        return log;
    };

    SimEngine engine(2);
    engine.queue().setDomain(1, 1);
    SimpleNetwork net("net", engine.queue(), latency);
    engine.setLookahead(net.minDeliveryDelay());
    auto windowed =
        play(engine.queue(), net, [&engine] { engine.run(); });

    EventQueue queue;
    SimpleNetwork plain_net("net", queue, latency);
    auto plain = play(queue, plain_net, [&queue] { queue.run(); });

    EXPECT_EQ(windowed, plain);
    EXPECT_EQ(engine.now(), queue.now());
    EXPECT_EQ(engine.executed(), queue.executed());
    EXPECT_GT(windowed.size(), 16u);
}

/**
 * A random multi-domain program for the merged-engine differential.
 * Station s is in domain s % domains and draws from its own Rng: a
 * station's events fire in the same order under any correct driver,
 * so its draws match. An event logs itself, schedules children onto
 * stations of its own domain (mixed priorities, delays from 0 to past
 * the calendar span) and defers deliveries to any station, some due
 * below the window end so the barrier floor lifts them.
 */
class DomainProgram
{
  public:
    /** One barrier-applied delivery, in apply order. */
    struct Applied
    {
        DeferKey key;
        std::int32_t target;
        Cycle at;

        bool operator==(const Applied &) const = default;
    };

    DomainProgram(std::uint64_t seed, unsigned domains,
                  unsigned per_domain, Cycle lookahead)
        : fires(domains * per_domain), domains(domains),
          perDomain(per_domain), lookahead(lookahead),
          budget(domains * per_domain, 300),
          nextTag(domains * per_domain, 0)
    {
        for (unsigned s = 0; s < domains * per_domain; ++s)
            rngs.emplace_back(seed * 1000 + s);
    }

    unsigned numStations() const { return domains * perDomain; }
    unsigned domainOf(std::int32_t s) const { return s % domains; }

    /** The queue a station's events go on (set by the driver). */
    std::function<EventQueue &(std::int32_t)> queueOf;

    /** Seed every station with one event in the first cycles. */
    void
    start()
    {
        for (std::int32_t s = 0; s < std::int32_t(numStations()); ++s)
            schedule(queueOf(s), rngs[s].range(30), s, 0, tagOf(s));
    }

    /// Per station: (cycle, tag) of every fired event, in order.
    std::vector<std::vector<std::pair<Cycle, std::uint64_t>>> fires;
    std::vector<Applied> applied;
    std::uint64_t floored = 0; ///< deliveries lifted to the window end

  private:
    std::uint64_t
    tagOf(std::int32_t origin)
    {
        return (std::uint64_t(origin) << 32) | nextTag[origin]++;
    }

    void
    schedule(EventQueue &q, Cycle when, std::int32_t target, int prio,
             std::uint64_t tag)
    {
        q.scheduleStation(when, target,
                          [this, target, tag] { fire(target, tag); },
                          prio);
    }

    Cycle
    childDelay(Rng &rng)
    {
        std::uint64_t kind = rng.range(10);
        if (kind < 2)
            return 0;
        if (kind < 7)
            return rng.range(2 * lookahead);
        if (kind < 9)
            return rng.range(EventQueue::ringBuckets * 2);
        return EventQueue::ringBuckets + rng.range(300);
    }

    void
    fire(std::int32_t s, std::uint64_t tag)
    {
        EventQueue &q = queueOf(s);
        fires[s].emplace_back(q.now(), tag);
        if (budget[s] == 0)
            return;
        --budget[s];
        Rng &rng = rngs[s];
        for (std::uint64_t k = rng.range(3); k > 0; --k) {
            auto target = static_cast<std::int32_t>(
                domainOf(s) + domains * rng.range(perDomain));
            Cycle when = q.now() + childDelay(rng);
            auto prio = static_cast<int>(rng.rangeInclusive(-1, 1));
            schedule(q, when, target, prio, tagOf(s));
        }
        if (rng.chance(0.5)) {
            auto target = static_cast<std::int32_t>(
                rng.range(numStations()));
            Cycle due = execCtx.when + rng.range(2 * lookahead + 1);
            DeferKey key = execCtx.nextKey();
            execCtx.sink->record(
                key, [this, key, target, due, t = tagOf(s)] {
                    EventQueue &tq = queueOf(target);
                    Cycle at = std::max(due, tq.windowFloor());
                    floored += at != due;
                    applied.push_back({key, target, at});
                    schedule(tq, at, target, 0, t);
                });
        }
    }

    unsigned domains;
    unsigned perDomain;
    Cycle lookahead;
    std::vector<Rng> rngs;
    std::vector<unsigned> budget;
    std::vector<std::uint64_t> nextTag;
};

/**
 * The reference driver: one bare EventQueue and DeferSink per
 * domain, each window drained domain by domain, the logs' union
 * sorted and applied at the barrier — the engine as it was before
 * its domains shared one queue.
 */
class ShardedDrain
{
  public:
    explicit ShardedDrain(unsigned domains)
    {
        for (unsigned d = 0; d < domains; ++d) {
            queues.push_back(std::make_unique<EventQueue>());
            sinks.push_back(std::make_unique<DeferSink>());
            queues.back()->setDeferSink(sinks.back().get());
        }
    }

    EventQueue &queue(unsigned d) { return *queues[d]; }

    void
    run(Cycle lookahead)
    {
        while (true) {
            Cycle t0 = invalidCycle;
            for (const auto &q : queues)
                t0 = std::min(t0, q->nextTime());
            if (t0 == invalidCycle)
                return;
            const Cycle window_end = t0 + lookahead - 1;
            unsigned active = 0;
            for (const auto &q : queues) {
                if (q->nextTime() <= window_end) {
                    ++active;
                    q->runUntil(window_end);
                }
            }
            ++stats.windows;
            stats.occupancySum += active;
            stats.maxOccupancy =
                std::max<std::uint64_t>(stats.maxOccupancy, active);
            if (active == 1) {
                ++stats.singleDomain;
                if (lastSingle)
                    ++stats.fusedWindows;
            } else {
                ++stats.multiDomain;
            }
            lastSingle = active == 1;

            std::vector<DeferSink::Op> ops;
            for (const auto &sink : sinks) {
                for (auto &op : sink->log())
                    ops.push_back(std::move(op));
                sink->log().clear();
            }
            std::sort(ops.begin(), ops.end(),
                      [](const auto &a, const auto &b) {
                          return a.first < b.first;
                      });
            for (const auto &q : queues)
                q->setWindowFloor(window_end + 1);
            for (auto &op : ops)
                op.second();
            for (const auto &q : queues)
                q->setWindowFloor(0);
        }
    }

    Cycle
    now() const
    {
        Cycle t = 0;
        for (const auto &q : queues)
            t = std::max(t, q->now());
        return t;
    }

    std::uint64_t
    executed() const
    {
        std::uint64_t n = 0;
        for (const auto &q : queues)
            n += q->executed();
        return n;
    }

    SimEngine::WindowStats stats;

  private:
    std::vector<std::unique_ptr<EventQueue>> queues;
    std::vector<std::unique_ptr<DeferSink>> sinks;
    bool lastSingle = false;
};

TEST(SimEngine, MergedQueueMatchesShardedDrain)
{
    // The one tagged queue must reproduce the domain-by-domain drain
    // exactly: per-station fire sequences, barrier apply order,
    // window counters, event count and final time.
    constexpr Cycle lookahead = 4;
    std::uint64_t fused = 0;
    for (std::uint64_t seed : {1, 2, 3, 4, 5}) {
        const unsigned domains = 2 + seed % 4;
        const unsigned per_domain = 1 + seed % 3;

        DomainProgram merged(seed, domains, per_domain, lookahead);
        SimEngine engine(domains);
        for (std::int32_t s = 0; s < std::int32_t(merged.numStations());
             ++s)
            engine.queue().setDomain(s, merged.domainOf(s));
        merged.queueOf = [&engine](std::int32_t) -> EventQueue & {
            return engine.queue();
        };
        engine.setLookahead(lookahead);
        merged.start();
        engine.run();

        DomainProgram sharded(seed, domains, per_domain, lookahead);
        ShardedDrain ref(domains);
        sharded.queueOf = [&ref, &sharded](std::int32_t s)
            -> EventQueue & { return ref.queue(sharded.domainOf(s)); };
        sharded.start();
        ref.run(lookahead);

        const std::string what = "seed " + std::to_string(seed);
        EXPECT_EQ(merged.fires, sharded.fires) << what;
        EXPECT_EQ(merged.applied, sharded.applied) << what;
        const SimEngine::WindowStats &w = engine.windowStats();
        EXPECT_EQ(w.windows, ref.stats.windows) << what;
        EXPECT_EQ(w.singleDomain, ref.stats.singleDomain) << what;
        EXPECT_EQ(w.fusedWindows, ref.stats.fusedWindows) << what;
        EXPECT_EQ(w.multiDomain, ref.stats.multiDomain) << what;
        EXPECT_EQ(w.occupancySum, ref.stats.occupancySum) << what;
        EXPECT_EQ(w.maxOccupancy, ref.stats.maxOccupancy) << what;
        EXPECT_EQ(engine.executed(), ref.executed()) << what;
        EXPECT_EQ(engine.now(), ref.now()) << what;

        // The program reached what it is meant to exercise.
        EXPECT_GT(engine.executed(), 1000u) << what;
        EXPECT_GT(merged.applied.size(), 100u) << what;
        EXPECT_GT(merged.floored, 0u) << what;
        EXPECT_GT(w.multiDomain, 0u) << what;
        fused += w.fusedWindows;
    }
    EXPECT_GT(fused, 0u);
}

TEST(SimEngineDeathTest, CrossDomainScheduleInsideWindowDies)
{
    // Only the barrier may touch another domain: a direct schedule
    // from a draining event onto another domain's station must trip
    // the engine's check, as must an engine-driven station-less one.
    SimEngine engine(2);
    EventQueue &q = engine.queue();
    q.setDomain(1, 1);
    q.scheduleStation(1, 0, [&q] { q.scheduleStation(9, 1, [] {}); });
    EXPECT_DEATH(engine.run(), "scheduled onto station 1 \\(domain 1\\)");

    SimEngine other(1);
    EXPECT_DEATH(other.queue().schedule(1, [] {}), "without a station");
}

/** Golden decision of one full System run. */
struct Golden
{
    Cycle makespan;
    std::uint64_t events;
    std::uint64_t messages;
    std::uint64_t windows;
};

void
expectGolden(const RunResult &r, const Golden &g, const std::string &what)
{
    EXPECT_EQ(r.makespan, g.makespan) << what;
    EXPECT_EQ(r.eventsExecuted, g.events) << what;
    EXPECT_EQ(r.messagesOnNoc, g.messages) << what;
    EXPECT_EQ(r.simWindows, g.windows) << what;
}

TEST(SimEngine, SystemGoldensAcrossNocMatrix)
{
    // A full 4-pipeline System across the topology / placement /
    // batching / credit matrix: timing, traffic and window count are
    // pinned, so any change to the barrier semantics fails here.
    struct NocPoint
    {
        TopologyKind topology;
        PlacementKind placement;
        bool batch;
        unsigned credits;
        Golden golden;
    };
    const NocPoint points[] = {
        {TopologyKind::Fixed, PlacementKind::Adjacent, false, 0,
         {3394531, 48533, 19136, 12545}},
        {TopologyKind::Ring, PlacementKind::Spread, true, 1,
         {3401615, 51283, 20477, 27565}},
        {TopologyKind::Mesh, PlacementKind::Random, true, 2,
         {3347783, 51466, 20546, 25968}},
    };

    TaskTrace trace = makeWorkload("Cholesky", 0.02, 3);
    for (const NocPoint &p : points) {
        PipelineConfig cfg = paperConfig(32);
        cfg.numTrs = 4;
        cfg.numPipelines = 4;
        cfg.nocTopology = p.topology;
        cfg.nocPlacement = p.placement;
        cfg.batchOperands = p.batch;
        cfg.slicePacketCredits = p.credits;
        expectGolden(runHardwareThreads(cfg, trace, 8), p.golden,
                     std::string(toString(p.topology)) + "/" +
                         toString(p.placement));
    }
}

TEST(SimEngine, RelocatedRealKernelGolden)
{
    // A real captured StarSs kernel relocated onto the synthetic
    // address space — the fig17 reference path.
    auto program = starss::makeCholeskyProgram(1, 6, 8);
    TaskTrace trace = program->context().relocatedTrace();
    PipelineConfig cfg = paperConfig(32);
    cfg.numPipelines = 2;
    expectGolden(runHardwareThreads(cfg, trace, 4),
                 {951881, 3719, 1458, 2041}, "relocated Cholesky");
}

/** Random task stream over a small object pool (dense hazards). */
TaskTrace
randomTrace(std::uint64_t seed, unsigned tasks, unsigned objects,
            unsigned max_ops)
{
    Rng rng(seed);
    TaskTrace trace;
    trace.name = "fuzz";
    trace.addKernel("k");
    std::vector<std::uint64_t> pool(objects);
    for (unsigned i = 0; i < objects; ++i)
        pool[i] = 0x1000 + 0x1000ULL * i;

    TaskBuilder b(trace);
    for (unsigned t = 0; t < tasks; ++t) {
        auto nops = static_cast<unsigned>(
            rng.rangeInclusive(1, static_cast<std::int64_t>(max_ops)));
        b.begin(0, 200 + rng.range(20000));
        std::vector<std::uint64_t> used;
        for (unsigned i = 0; i < nops; ++i) {
            std::uint64_t addr = pool[rng.range(objects)];
            bool dup = false;
            for (std::uint64_t u : used)
                dup |= u == addr;
            if (dup)
                continue;
            used.push_back(addr);
            double r = rng.uniform();
            if (r < 0.15)
                b.scalar();
            else if (r < 0.55)
                b.in(addr, 1024);
            else if (r < 0.8)
                b.inout(addr, 1024);
            else
                b.out(addr, 1024);
        }
        b.commit();
    }
    return trace;
}

/**
 * Golden window/fusion counters for one pinned configuration. These
 * are simulated-state functions: any engine change that shifts them
 * must be intentional and update these numbers (and BENCH_sim.json).
 */
TEST(SimEngine, GoldenWindowCounters)
{
    TaskTrace trace = randomTrace(1, 80, 10, 5);
    PipelineConfig cfg;
    cfg.numPipelines = 2;
    cfg.numCores = 32;
    cfg.nocTopology = TopologyKind::Ring;
    cfg.nocPlacement = PlacementKind::Adjacent;
    cfg.traceMode = obs::TraceMode::Full;
    auto sys = SystemBuilder(cfg, trace).build();
    sys->run();
    const SimEngine::WindowStats &w = sys->simEngine().windowStats();

    // Every window has at least one active domain.
    EXPECT_EQ(w.windows, w.singleDomain + w.multiDomain);
    EXPECT_GE(w.singleDomain, w.fusedWindows);
    EXPECT_GE(w.occupancySum, w.singleDomain + 2 * w.multiDomain);

    // Pinned goldens (ring/adjacent, 2 pipelines, 32 cores, seed 1).
    EXPECT_EQ(w.windows, 3148u);
    EXPECT_EQ(w.singleDomain, 2883u);
    EXPECT_EQ(w.fusedWindows, 2653u);
    EXPECT_EQ(w.multiDomain, 265u);
    EXPECT_EQ(w.occupancySum, 3415u);
    EXPECT_EQ(w.maxOccupancy, 3u); // 2 pipelines + backend
}

/** Every deterministic field of two RunResults must agree exactly. */
void
expectIdentical(const RunResult &a, const RunResult &b,
                const std::string &what)
{
    EXPECT_EQ(a.makespan, b.makespan) << what;
    EXPECT_EQ(a.eventsExecuted, b.eventsExecuted) << what;
    EXPECT_EQ(a.messagesOnNoc, b.messagesOnNoc) << what;
    EXPECT_EQ(a.versionsCreated, b.versionsCreated) << what;
    EXPECT_EQ(a.versionsRenamed, b.versionsRenamed) << what;
    EXPECT_EQ(a.dmaWritebacks, b.dmaWritebacks) << what;
    EXPECT_EQ(a.gatewayStallCycles, b.gatewayStallCycles) << what;
    EXPECT_EQ(a.sourceStallCycles, b.sourceStallCycles) << what;
    EXPECT_EQ(a.allocWaitCycles, b.allocWaitCycles) << what;
    EXPECT_EQ(a.decodeRateCycles, b.decodeRateCycles) << what;
    EXPECT_EQ(a.avgTasksInFlight, b.avgTasksInFlight) << what;
    EXPECT_EQ(a.linkTraversals, b.linkTraversals) << what;
    EXPECT_EQ(a.linkWaitCycles, b.linkWaitCycles) << what;
    EXPECT_EQ(a.maxLinkUtilization, b.maxLinkUtilization) << what;
    EXPECT_EQ(a.startOrder, b.startOrder) << what;
    EXPECT_EQ(a.coreOf, b.coreOf) << what;
}

TEST(SimEngine, ConcurrentSystemsAreIndependent)
{
    // Independent Systems simulating on different host threads (the
    // tss-serve execute pool runs one per worker) must not perturb
    // each other: every per-event context the engine uses — the
    // thread-local execCtx and each queue's windowFloor — is scoped
    // to one engine. Regression for a process-shared floor, which let
    // one engine's window end leak into another engine's delivery
    // clamp (intermittently shifted makespans, and double version
    // release when events landed at corrupted cycles).
    TaskTrace trace = makeWorkload("Cholesky", 0.02, 2);
    PipelineConfig cfg = paperConfig(32);
    cfg.numPipelines = 2;

    RunResult baseline = runHardwareThreads(cfg, trace, 4);
    EXPECT_EQ(baseline.makespan, 3377056u);

    constexpr unsigned kThreads = 6;
    constexpr unsigned kRunsPerThread = 3;
    std::vector<RunResult> results(kThreads * kRunsPerThread);
    std::vector<std::thread> runners;
    for (unsigned t = 0; t < kThreads; ++t) {
        runners.emplace_back([&, t] {
            for (unsigned r = 0; r < kRunsPerThread; ++r)
                results[t * kRunsPerThread + r] =
                    runHardwareThreads(cfg, trace, 4);
        });
    }
    for (auto &runner : runners)
        runner.join();

    for (unsigned i = 0; i < results.size(); ++i)
        expectIdentical(results[i], baseline,
                        "concurrent run " + std::to_string(i));
}

/**
 * Stations @p a and @p b, in two domains, keep eight messages each
 * bouncing forever over @p net, so most windows have both domains
 * active and every window defers sends to its barrier. Once the
 * queues, message pools, defer logs, the barrier buffer and the
 * network's per-pair state are warm, windows must run without a
 * single heap allocation.
 */
void
expectWarmWindowsDoNotAllocate(SimEngine &engine, Network &net, NodeId a,
                               NodeId b)
{
    EventQueue &q = engine.queue();
    engine.setLookahead(net.minDeliveryDelay());

    struct Echo : Endpoint
    {
        Network *net = nullptr;
        NodeId self = 0;

        void
        receive(MessagePtr msg) override
        {
            net->send(std::make_unique<Message>(self, msg->src, 16));
        }
    };

    Echo echo_a, echo_b;
    echo_a.net = echo_b.net = &net;
    echo_a.self = a;
    echo_b.self = b;
    net.attach(a, echo_a);
    net.attach(b, echo_b);
    q.setDomain(b, 1);
    for (Cycle t = 1; t <= 8; ++t) {
        q.scheduleStation(t, a, [&net, a, b] {
            net.send(std::make_unique<Message>(a, b, 16));
        });
        q.scheduleStation(t, b, [&net, a, b] {
            net.send(std::make_unique<Message>(b, a, 16));
        });
    }

    engine.run(20000); // warm-up
    const auto windows = engine.windowStats().windows;
    const auto multi = engine.windowStats().multiDomain;
    const auto events = engine.executed();

    std::uint64_t before = globalNews.load();
    engine.run(50000);
    std::uint64_t news = globalNews.load() - before;

    EXPECT_EQ(news, 0u) << "heap allocations in warm windows";
    EXPECT_GE(engine.executed() - events, 50000u);
    EXPECT_GT(engine.windowStats().windows - windows, 1000u);
    EXPECT_GT(engine.windowStats().multiDomain - multi, 1000u);
}

TEST(SimEngine, WarmWindowBarriersDoNotAllocate)
{
    {
        SimEngine engine(2);
        SimpleNetwork net("net", engine.queue(), 3);
        expectWarmWindowsDoNotAllocate(engine, net, 0, 1);
    }

    // The same echo pair as neighbouring cores of the paper's ring.
    // Each direction's route is built on its first message; after
    // that a send allocates nothing either. (The two cores' one-hop
    // delay equals the lookahead, so both domains stay active in
    // most windows, as above.)
    SimEngine engine(2);
    NocParams p;
    p.numCores = 8;
    auto ring = makeTopology(TopologyKind::Ring, "noc", engine.queue(), p);
    expectWarmWindowsDoNotAllocate(engine, *ring, ring->coreNode(0),
                                   ring->coreNode(1));
}

} // namespace
} // namespace tss
