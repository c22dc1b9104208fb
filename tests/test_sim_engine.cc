/**
 * @file
 * The windowed engine (sim/sim_engine.hh): cross-domain delivery
 * timing at the lookahead boundary and one cycle to either side, the
 * conservative floor on below-window deliveries, golden System
 * results and window counters over topology/placement/batching
 * configs, independence of concurrently simulating Systems, and
 * allocation-free warm barriers.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>
#include <thread>
#include <utility>
#include <vector>

#include "core/system.hh"
#include "driver/experiment.hh"
#include "noc/network.hh"
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
    SimpleNetwork net("net", engine.shard(0), latency);
    engine.setLookahead(net.minDeliveryDelay());

    Recorder sink(engine.shard(1));
    net.attach(1, sink);
    net.bindQueue(0, engine.shard(0));
    net.bindQueue(1, engine.shard(1));

    engine.shard(0).scheduleStation(inject, 0, [&net, bytes] {
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
    auto play = [](EventQueue &qa, EventQueue &qb, Network &net,
                   const std::function<void()> &run) {
        Bouncer a, b;
        a.net = b.net = &net;
        a.self = 0;
        b.self = 1;
        a.eq = &qa;
        b.eq = &qb;
        net.attach(0, a);
        net.attach(1, b);
        net.bindQueue(0, qa);
        net.bindQueue(1, qb);
        qa.scheduleStation(1, 0, [&net] {
            net.send(std::make_unique<Message>(0, 1, 16));
        });
        run();
        auto log = a.log;
        log.insert(log.end(), b.log.begin(), b.log.end());
        return log;
    };

    SimEngine engine(2);
    SimpleNetwork net("net", engine.shard(0), latency);
    engine.setLookahead(net.minDeliveryDelay());
    auto windowed = play(engine.shard(0), engine.shard(1), net,
                         [&engine] { engine.run(); });

    EventQueue queue;
    SimpleNetwork plain_net("net", queue, latency);
    auto plain =
        play(queue, queue, plain_net, [&queue] { queue.run(); });

    EXPECT_EQ(windowed, plain);
    EXPECT_EQ(engine.now(), queue.now());
    EXPECT_EQ(engine.executed(), queue.executed());
    EXPECT_GT(windowed.size(), 16u);
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

    // Every window has at least one active shard.
    EXPECT_EQ(w.windows, w.singleShard + w.multiShard);
    EXPECT_GE(w.singleShard, w.fusedWindows);
    EXPECT_GE(w.occupancySum, w.singleShard + 2 * w.multiShard);

    // Pinned goldens (ring/adjacent, 2 pipelines, 32 cores, seed 1).
    EXPECT_EQ(w.windows, 3148u);
    EXPECT_EQ(w.singleShard, 2883u);
    EXPECT_EQ(w.fusedWindows, 2653u);
    EXPECT_EQ(w.multiShard, 265u);
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

TEST(SimEngine, WarmWindowBarriersDoNotAllocate)
{
    // Two stations in two domains keep eight messages each bouncing
    // forever, so most windows have both shards active and every
    // window defers sends to its barrier. Once the queues, message
    // pools, defer logs and the barrier buffer are warm, windows must
    // run without a single heap allocation.
    constexpr Cycle latency = 3;
    SimEngine engine(2);
    SimpleNetwork net("net", engine.shard(0), latency);
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

    Echo a, b;
    a.net = b.net = &net;
    a.self = 0;
    b.self = 1;
    net.attach(0, a);
    net.attach(1, b);
    net.bindQueue(0, engine.shard(0));
    net.bindQueue(1, engine.shard(1));
    for (Cycle t = 1; t <= 8; ++t) {
        engine.shard(0).scheduleStation(t, 0, [&net] {
            net.send(std::make_unique<Message>(0, 1, 16));
        });
        engine.shard(1).scheduleStation(t, 1, [&net] {
            net.send(std::make_unique<Message>(1, 0, 16));
        });
    }

    engine.run(20000); // warm-up
    const auto windows = engine.windowStats().windows;
    const auto multi = engine.windowStats().multiShard;
    const auto events = engine.executed();

    std::uint64_t before = globalNews.load();
    engine.run(50000);
    std::uint64_t news = globalNews.load() - before;

    EXPECT_EQ(news, 0u) << "heap allocations in warm windows";
    EXPECT_GE(engine.executed() - events, 50000u);
    EXPECT_GT(engine.windowStats().windows - windows, 1000u);
    EXPECT_GT(engine.windowStats().multiShard - multi, 1000u);
}

} // namespace
} // namespace tss
