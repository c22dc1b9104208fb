/**
 * @file
 * Property/fuzz testing of the whole decode-schedule-execute stack. A
 * seeded generator builds random real-kernel task programs (random
 * operand counts, in/out/inout mixes, heavy address reuse over a
 * small object pool) and asserts, for every seed:
 *
 *  - the simulated pipeline's start order is a topological order of
 *    the renamed dependency graph (the paper's correctness claim);
 *  - sequential execution, functional out-of-order replay of the
 *    simulated order, graph-mode parallel execution and replay-mode
 *    parallel execution all produce bit-identical final memory;
 *  - the ParallelExecutor terminates (no deadlock) on every such
 *    program — backstopped by the ctest TIMEOUT property.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/system.hh"
#include "graph/dep_graph.hh"
#include "ovt_bound.hh"
#include "runtime/functional_exec.hh"
#include "runtime/parallel_exec.hh"
#include "runtime/starss.hh"
#include "sim/random.hh"
#include "trace/relocate.hh"
#include "workload/starss_programs.hh"

namespace tss
{
namespace
{

using starss::Buffers;
using starss::FunctionalExecutor;
using starss::ParallelExecutor;
using starss::Param;
using starss::TaskContext;

/**
 * A randomly generated real-kernel program over a small object pool.
 * Deriving from RealProgram reuses the snapshot machinery the
 * differential tests use, so both suites share one oracle
 * definition.
 */
class FuzzProgram : public starss::RealProgram
{
  public:
    explicit FuzzProgram(std::uint64_t seed)
    {
        Rng rng(seed);
        unsigned num_objects =
            static_cast<unsigned>(rng.rangeInclusive(4, 20));
        unsigned num_tasks =
            static_cast<unsigned>(rng.rangeInclusive(20, 160));

        objects.resize(num_objects);
        for (auto &object : objects) {
            // Multiples of 8 so kernels can mix whole u64 lanes.
            auto lanes = static_cast<std::size_t>(
                rng.rangeInclusive(2, 16));
            object.assign(lanes * 8, 0);
            for (auto &byte : object)
                byte = static_cast<std::uint8_t>(rng.next());
        }
        for (const auto &object : objects)
            addRegion(object.data(), object.size());

        for (unsigned t = 0; t < num_tasks; ++t)
            spawnRandomTask(rng, t);
    }

  private:
    void
    spawnRandomTask(Rng &rng, unsigned index)
    {
        unsigned arity = static_cast<unsigned>(rng.rangeInclusive(
            1, std::min<std::uint64_t>(6, objects.size())));

        // Distinct objects per task; reuse across tasks is the point.
        std::vector<unsigned> picks;
        while (picks.size() < arity) {
            auto candidate =
                static_cast<unsigned>(rng.range(objects.size()));
            bool dup = false;
            for (unsigned p : picks)
                dup |= p == candidate;
            if (!dup)
                picks.push_back(candidate);
        }

        std::vector<Param> params;
        std::vector<Dir> dirs;
        for (unsigned p : picks) {
            double roll = rng.uniform();
            auto bytes = static_cast<Bytes>(objects[p].size());
            void *ptr = objects[p].data();
            if (roll < 0.5) {
                params.push_back(starss::in(ptr, bytes));
                dirs.push_back(Dir::In);
            } else if (roll < 0.7) {
                params.push_back(starss::out(ptr, bytes));
                dirs.push_back(Dir::Out);
            } else {
                params.push_back(starss::inout(ptr, bytes));
                dirs.push_back(Dir::InOut);
            }
        }

        // Each task's kernel: fold every readable operand into an
        // accumulator, then overwrite every writable operand with a
        // mix of (accumulator, operand index, lane) — deterministic
        // in its inputs, different per task shape.
        std::vector<Bytes> sizes;
        for (unsigned p : picks)
            sizes.push_back(static_cast<Bytes>(objects[p].size()));
        auto fn = [dirs, sizes](Buffers &buffers) {
            std::uint64_t acc = 0xcbf29ce484222325ULL;
            for (std::size_t i = 0; i < dirs.size(); ++i) {
                if (!readsObject(dirs[i]))
                    continue;
                const auto *data =
                    static_cast<const std::uint8_t *>(buffers.raw(i));
                for (Bytes b = 0; b < sizes[i]; ++b) {
                    acc ^= data[b];
                    acc *= 0x100000001b3ULL;
                }
            }
            for (std::size_t i = 0; i < dirs.size(); ++i) {
                if (!writesObject(dirs[i]))
                    continue;
                auto *data =
                    static_cast<std::uint8_t *>(buffers.raw(i));
                for (Bytes lane = 0; lane * 8 < sizes[i]; ++lane) {
                    std::uint64_t x =
                        acc ^ (i * 0x9e3779b97f4a7c15ULL) ^ lane;
                    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
                    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
                    x ^= x >> 31;
                    std::memcpy(data + lane * 8, &x, 8);
                }
            }
        };

        auto kid = ctx.addKernel("fuzz" + std::to_string(index),
                                 std::move(fn),
                                 rng.uniform(2.0, 20.0));
        ctx.spawn(kid, params);
    }

    std::vector<std::vector<std::uint8_t>> objects;
};

PipelineConfig
randomConfig(Rng &rng)
{
    PipelineConfig cfg;
    static const unsigned core_choices[] = {1, 2, 4, 8, 32};
    cfg.numCores = core_choices[rng.range(5)];
    cfg.numTrs = static_cast<unsigned>(rng.rangeInclusive(1, 8));
    cfg.numOrt = static_cast<unsigned>(rng.rangeInclusive(1, 2));
    return cfg;
}

TEST(FuzzGraph, PipelineOrdersAreTopologicalAndExecutionIsExact)
{
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        FuzzProgram reference(seed);
        reference.context().runSequential();
        std::vector<std::uint8_t> expected = reference.snapshot();

        // Simulate the pipeline's scheduling decision.
        FuzzProgram simulated(seed);
        Rng cfg_rng(seed * 977);
        PipelineConfig cfg = randomConfig(cfg_rng);
        auto pipeline = SystemBuilder(cfg, simulated.context().trace()).build();
        RunResult decision = pipeline->run();

        DepGraph renamed = DepGraph::build(
            simulated.context().trace(), Semantics::Renamed);
        EXPECT_TRUE(renamed.isTopologicalOrder(decision.startOrder))
            << "seed " << seed << ": simulated start order violates "
            << "the renamed dependency graph";

        // Functional replay of the simulated order.
        FunctionalExecutor fexec(simulated.context());
        fexec.execute(decision.startOrder);
        EXPECT_EQ(simulated.snapshot(), expected)
            << "seed " << seed << ": functional replay diverged";

        // Replay the simulated decision on real threads.
        FuzzProgram replayed(seed);
        ParallelExecutor rexec(replayed.context());
        rexec.runReplay(decision);
        EXPECT_EQ(replayed.snapshot(), expected)
            << "seed " << seed << ": replay mode diverged";

        // Dataflow execution on real threads must terminate and
        // agree, at several widths.
        for (unsigned threads : {2u, 4u}) {
            FuzzProgram parallel(seed);
            ParallelExecutor pexec(parallel.context());
            starss::ParallelRunStats stats = pexec.runGraph(threads);
            EXPECT_EQ(stats.threads, threads);
            EXPECT_EQ(parallel.snapshot(), expected)
                << "seed " << seed << ": graph mode with " << threads
                << " threads diverged";
        }
    }
}

/**
 * The sharded frontend under fuzz: the same random shared-object
 * programs, split round-robin over generating threads (heavy
 * cross-thread sharing by construction — the configuration the
 * pre-shard SystemBuilder rejected), decoded by 1/2/4-pipeline
 * machines. Start orders must stay topological and functional replay
 * of every decision must be bit-identical to sequential execution,
 * independent of the shard count.
 */
TEST(FuzzGraph, ShardedPipelinesStayExactUnderSharing)
{
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        FuzzProgram reference(seed);
        reference.context().runSequential();
        std::vector<std::uint8_t> expected = reference.snapshot();

        for (unsigned pipes : {1u, 2u, 4u}) {
            FuzzProgram simulated(seed);
            const TaskTrace &trace = simulated.context().trace();

            PipelineConfig cfg;
            cfg.numCores = 8;
            cfg.numTrs = 2;
            cfg.numOrt = pipes == 1 ? 2 : 1;
            cfg.numPipelines = pipes;
            if (pipes == 4) {
                // One mesh + spread + batching + flow-control point
                // in the fuzz matrix: the full NoC subsystem under
                // random shared-object programs.
                cfg.nocTopology = TopologyKind::Mesh;
                cfg.nocPlacement = PlacementKind::Spread;
                cfg.batchOperands = true;
                cfg.slicePacketCredits = 2;
            }

            std::vector<unsigned> thread_of(trace.size());
            for (std::size_t t = 0; t < trace.size(); ++t)
                thread_of[t] = static_cast<unsigned>(t % 3);
            auto sys = SystemBuilder(cfg, trace)
                           .threads(std::move(thread_of))
                           .build();
            RunResult decision = sys->run(4'000'000'000ULL);

            DepGraph renamed =
                DepGraph::build(trace, Semantics::Renamed);
            EXPECT_TRUE(renamed.isTopologicalOrder(decision.startOrder))
                << "seed " << seed << ", " << pipes
                << " pipelines: start order violates the renamed "
                << "dependency graph";

            FunctionalExecutor fexec(simulated.context());
            fexec.execute(decision.startOrder);
            EXPECT_EQ(simulated.snapshot(), expected)
                << "seed " << seed << ", " << pipes
                << " pipelines: functional replay diverged";
        }
    }
}

/**
 * Topology/placement equivalence: random shared-object programs run
 * under the fixed-latency, ring and mesh fabrics with every
 * placement policy (plus batching and credit flow control in the
 * mix). The interconnect may change *when* things happen, never
 * *what* happens: every decision must start exactly the full task
 * set in a topological order of the renamed graph, and functional
 * replay of each decision must be bit-identical to sequential
 * execution.
 */
TEST(FuzzGraph, TopologyPlacementEquivalence)
{
    struct NocConfig
    {
        TopologyKind topology;
        PlacementKind placement;
        bool batch;
        unsigned credits;
    };
    const NocConfig configs[] = {
        {TopologyKind::Fixed, PlacementKind::Adjacent, false, 0},
        {TopologyKind::Ring, PlacementKind::Spread, true, 1},
        {TopologyKind::Mesh, PlacementKind::Adjacent, false, 2},
        {TopologyKind::Mesh, PlacementKind::Random, true, 0},
    };

    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        FuzzProgram reference(seed);
        reference.context().runSequential();
        std::vector<std::uint8_t> expected = reference.snapshot();

        for (const NocConfig &noc : configs) {
            FuzzProgram simulated(seed);
            const TaskTrace &trace = simulated.context().trace();

            PipelineConfig cfg;
            cfg.numCores = 8;
            cfg.numTrs = 2;
            cfg.numOrt = 1;
            cfg.numPipelines = 2;
            cfg.nocTopology = noc.topology;
            cfg.nocPlacement = noc.placement;
            cfg.nocPlacementSeed = seed;
            cfg.batchOperands = noc.batch;
            cfg.slicePacketCredits = noc.credits;

            std::string what = std::string(toString(noc.topology)) +
                "/" + toString(noc.placement) + "/seed " +
                std::to_string(seed);

            std::vector<unsigned> thread_of(trace.size());
            for (std::size_t t = 0; t < trace.size(); ++t)
                thread_of[t] = static_cast<unsigned>(t % 3);
            auto sys = SystemBuilder(cfg, trace)
                           .threads(std::move(thread_of))
                           .build();
            RunResult decision = sys->run(4'000'000'000ULL);

            // Identical completion set: every task, exactly once.
            ASSERT_EQ(decision.startOrder.size(), trace.size())
                << what;
            std::vector<std::uint32_t> started = decision.startOrder;
            std::sort(started.begin(), started.end());
            for (std::uint32_t t = 0;
                 t < static_cast<std::uint32_t>(trace.size()); ++t)
                ASSERT_EQ(started[t], t) << what;

            DepGraph renamed =
                DepGraph::build(trace, Semantics::Renamed);
            EXPECT_TRUE(renamed.isTopologicalOrder(decision.startOrder))
                << what << ": start order violates the renamed graph";

            FunctionalExecutor fexec(simulated.context());
            fexec.execute(decision.startOrder);
            EXPECT_EQ(simulated.snapshot(), expected)
                << what << ": functional replay diverged";
        }
    }
}

/**
 * The version-slot reserve/escape protocol under fuzz: random
 * shared-object programs decoded with the OVT squeezed down to the
 * pinned minimum-safe bound (tests/ovt_bound.hh), one slot above it,
 * and twice it — across the NoC fabric matrix and the writeback
 * policies. Fuzz tasks carry at most 6 memory operands, below the
 * bound of 10, so every configuration must complete (asserted through
 * the liveness watchdog, not a hang into the ctest TIMEOUT), and
 * functional replay of each decision must match sequential execution
 * bit for bit.
 *
 * Timing comparisons run on the *relocated* trace (synthetic
 * addresses): a captured trace's heap addresses differ per program
 * instance, so raw captures are only comparable on address-independent
 * properties — the PR-5 lesson, load-bearing here.
 */
TEST(FuzzGraph, TinyOvtReserveEscapeStaysExact)
{
    struct SqueezeConfig
    {
        unsigned slots;
        TopologyKind topology;
        PlacementKind placement;
        bool batch;
        bool eagerWriteback;
    };
    const SqueezeConfig configs[] = {
        {kMinSafeOvtSlotsPerSlice, TopologyKind::Fixed,
         PlacementKind::Adjacent, false, true},
        {kMinSafeOvtSlotsPerSlice + 1, TopologyKind::Ring,
         PlacementKind::Spread, false, false},
        {2 * kMinSafeOvtSlotsPerSlice, TopologyKind::Mesh,
         PlacementKind::Spread, true, true},
    };

    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        FuzzProgram reference(seed);
        reference.context().runSequential();
        std::vector<std::uint8_t> expected = reference.snapshot();

        FuzzProgram program(seed);
        TaskTrace trace = program.context().relocatedTrace();
        DepGraph renamed = DepGraph::build(trace, Semantics::Renamed);
        auto makeThreads = [&trace] {
            std::vector<unsigned> thread_of(trace.size());
            for (std::size_t t = 0; t < trace.size(); ++t)
                thread_of[t] = static_cast<unsigned>(t % 3);
            return thread_of;
        };

        for (const SqueezeConfig &squeeze : configs) {
            PipelineConfig cfg;
            cfg.numCores = 8;
            cfg.numTrs = 2;
            cfg.numOrt = 1;
            cfg.numPipelines = 2;
            cfg.ovtTotalBytes = Bytes(squeeze.slots) * 16 * cfg.totalOrt();
            cfg.nocTopology = squeeze.topology;
            cfg.nocPlacement = squeeze.placement;
            cfg.batchOperands = squeeze.batch;
            cfg.eagerWriteback = squeeze.eagerWriteback;

            std::string what = "seed " + std::to_string(seed) + ", " +
                std::to_string(squeeze.slots) + " slots/slice, " +
                toString(squeeze.topology) + "/" +
                toString(squeeze.placement);

            // Liveness first: the watchdog must report clean
            // completion, not a wedge or an event-limit stop.
            auto sys =
                SystemBuilder(cfg, trace).threads(makeThreads()).build();
            LivenessReport rep = sys->runWatchdog(1'000'000'000ULL);
            ASSERT_TRUE(rep.completed)
                << what << ": finished " << rep.tasksFinished << "/"
                << trace.size()
                << (rep.wedged ? " (wedged)" : " (event limit)");
            ASSERT_FALSE(rep.wedged) << what;

            // Then the decision itself.
            RunResult decision = sys->collectResult();
            ASSERT_EQ(decision.startOrder.size(), trace.size()) << what;
            EXPECT_TRUE(renamed.isTopologicalOrder(decision.startOrder))
                << what << ": start order violates the renamed "
                << "dependency graph";

            // Final memory: functional replay of the squeezed-OVT
            // decision on a fresh program instance must reproduce
            // sequential execution bit for bit.
            FuzzProgram replayed(seed);
            FunctionalExecutor fexec(replayed.context());
            fexec.execute(decision.startOrder);
            EXPECT_EQ(replayed.snapshot(), expected)
                << "seed " << seed << ", " << squeeze.slots
                << " slots/slice: functional replay diverged";
        }
    }
}

/**
 * Rewrite a captured trace as if the same program had been captured
 * under a different memory layout: every registered region moves to a
 * fresh base (chosen from @p base, optionally in reversed placement
 * order, with irregular spacing so region inference cannot merge or
 * stride-coalesce neighbours). This simulates what ASLR and allocator
 * choice do to a real capture, without re-running the program.
 */
TaskTrace
shiftCapture(const TaskTrace &trace,
             const std::vector<MemRegion> &regions, std::uint64_t base,
             bool reversed)
{
    std::vector<std::uint64_t> new_base(regions.size());
    std::uint64_t next = base;
    for (std::size_t k = 0; k < regions.size(); ++k) {
        std::size_t i = reversed ? regions.size() - 1 - k : k;
        new_base[i] = next;
        next += regions[i].bytes + 4096 + 512 * (k % 3);
    }
    TaskTrace out = trace;
    for (auto &task : out.tasks) {
        for (auto &op : task.operands) {
            if (!isMemoryOperand(op.dir))
                continue;
            for (std::size_t i = 0; i < regions.size(); ++i) {
                if (op.addr >= regions[i].base &&
                    op.addr + op.bytes <=
                        regions[i].base + regions[i].bytes) {
                    op.addr = new_base[i] + (op.addr - regions[i].base);
                    break;
                }
            }
        }
    }
    return out;
}

std::vector<TraceOperand>
flatOperands(const TaskTrace &trace)
{
    std::vector<TraceOperand> out;
    for (const auto &task : trace.tasks)
        for (const auto &op : task.operands)
            if (isMemoryOperand(op.dir))
                out.push_back(op);
    return out;
}

/**
 * Relocation soundness under fuzz (the ASLR property, end to end):
 * the same random program captured at two different simulated memory
 * layouts relocates to the identical trace — identical operand
 * addresses, therefore identical shardOf routing — and simulating
 * the two relocated captures produces bit-identical timing and
 * scheduling decisions. The capture-registry path
 * (TaskContext::relocatedTrace) agrees with pure inference on both
 * shifted layouts, and replaying a relocated decision on the real
 * program memory stays bit-identical to sequential execution.
 */
TEST(FuzzGraph, RelocationIsBaseInvariantAndOracleExact)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        FuzzProgram reference(seed);
        reference.context().runSequential();
        std::vector<std::uint8_t> expected = reference.snapshot();

        FuzzProgram program(seed);
        const starss::TaskContext &ctx = program.context();
        const TaskTrace &trace = ctx.trace();

        TaskTrace cap_a =
            shiftCapture(trace, ctx.regions(), 0x6000'0000'0000, false);
        TaskTrace cap_b =
            shiftCapture(trace, ctx.regions(), 0x23'0000'0000, true);

        TaskTrace rel_a = relocateTrace(cap_a);
        TaskTrace rel_b = relocateTrace(cap_b);
        TaskTrace rel_reg = ctx.relocatedTrace();

        auto ops_a = flatOperands(rel_a);
        auto ops_b = flatOperands(rel_b);
        auto ops_reg = flatOperands(rel_reg);
        ASSERT_EQ(ops_a.size(), ops_b.size()) << "seed " << seed;
        ASSERT_EQ(ops_a.size(), ops_reg.size()) << "seed " << seed;

        PipelineConfig shard_cfg;
        shard_cfg.numOrt = 2;
        shard_cfg.numPipelines = 2;
        for (std::size_t i = 0; i < ops_a.size(); ++i) {
            // Identical traces, identical shardOf routing — from
            // either shifted capture and from the registry path.
            EXPECT_EQ(ops_a[i].addr, ops_b[i].addr) << "seed " << seed;
            EXPECT_EQ(ops_a[i].addr, ops_reg[i].addr)
                << "seed " << seed;
            EXPECT_EQ(ops_a[i].bytes, ops_b[i].bytes)
                << "seed " << seed;
            EXPECT_EQ(shard_cfg.shardOf(ops_a[i].addr),
                      shard_cfg.shardOf(ops_b[i].addr))
                << "seed " << seed;
        }
        EXPECT_TRUE(sameAliasing(trace, rel_reg)) << "seed " << seed;

        // Identical simulated timing for the two relocated captures,
        // under multi-thread shared-data decode.
        PipelineConfig cfg;
        cfg.numCores = 8;
        cfg.numTrs = 2;
        cfg.numOrt = 1;
        cfg.numPipelines = 2;
        auto simulate = [&cfg](const TaskTrace &t) {
            std::vector<unsigned> thread_of(t.size());
            for (std::size_t i = 0; i < thread_of.size(); ++i)
                thread_of[i] = static_cast<unsigned>(i % 3);
            auto sys = SystemBuilder(cfg, t)
                           .threads(std::move(thread_of))
                           .build();
            return sys->run(4'000'000'000ULL);
        };
        RunResult run_a = simulate(rel_a);
        RunResult run_b = simulate(rel_b);
        EXPECT_EQ(run_a.makespan, run_b.makespan) << "seed " << seed;
        EXPECT_EQ(run_a.startOrder, run_b.startOrder)
            << "seed " << seed;
        EXPECT_EQ(run_a.messagesOnNoc, run_b.messagesOnNoc)
            << "seed " << seed;
        EXPECT_EQ(run_a.eventsExecuted, run_b.eventsExecuted)
            << "seed " << seed;

        // Bit-identical oracle memory: the relocated decision runs on
        // the real pointers.
        DepGraph renamed = DepGraph::build(rel_a, Semantics::Renamed);
        EXPECT_TRUE(renamed.isTopologicalOrder(run_a.startOrder))
            << "seed " << seed;
        ParallelExecutor exec(program.context());
        exec.runReplay(run_a);
        EXPECT_EQ(program.snapshot(), expected)
            << "seed " << seed
            << ": relocated decision replay diverged";
    }
}

/**
 * The renamed graph admits orders the sequential graph forbids; the
 * generator must actually produce renaming opportunities or the fuzz
 * proves less than it claims.
 */
TEST(FuzzGraph, GeneratorExercisesRenaming)
{
    std::size_t renamed_fewer = 0;
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        FuzzProgram program(seed);
        auto renamed = DepGraph::build(program.context().trace(),
                                       Semantics::Renamed);
        auto sequential = DepGraph::build(program.context().trace(),
                                          Semantics::Sequential);
        EXPECT_LE(renamed.numEdges(), sequential.numEdges());
        renamed_fewer +=
            renamed.numEdges() < sequential.numEdges() ? 1 : 0;
    }
    EXPECT_GT(renamed_fewer, 12u)
        << "most fuzz programs should contain WaR/WaW hazards that "
        << "renaming dissolves";
}

} // namespace
} // namespace tss
