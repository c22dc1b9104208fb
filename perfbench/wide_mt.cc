/**
 * @file
 * wide_mt: the fig18 program. 6000 tasks, each reading 9 and writing
 * 3 of 96 shared 512 B objects, on 4 pipelines fed by 8 generating
 * threads, with slicePacketCredits=1 and delay-matrix lookahead. One
 * long simulation per pass, so build time is negligible;
 * cross-pipeline NoC traffic, ticket ordering and multi-shard engine
 * windows dominate. It bypasses serve and relocation.
 *
 * The measured pass runs one simulation thread, the engine default.
 * At 4 threads on a shared 4-core host, any other load stalls the
 * engine's window barriers: over ten 30 s runs the median pass ranged
 * 1.7-4.8 s, too unsteady for a bound. The traced run times the same
 * simulation at 1 and 4 threads and reports sim.speedup_4t, the number
 * on which keeping the parallel engine is decided.
 */

#include <vector>

#include "bench.hh"
#include "driver/experiment.hh"
#include "sim/random.hh"
#include "workload/address_space.hh"
#include "workload/builder.hh"

namespace perfbench
{

namespace
{

constexpr unsigned kTasks = 6000;
constexpr unsigned kGenThreads = 8;

/** The fig17/fig18 wide-task shared-data generator. */
tss::TaskTrace
makeWideTrace(unsigned tasks, std::uint64_t seed)
{
    tss::TaskTrace trace;
    trace.name = "wide";
    trace.addKernel("wide");
    tss::TaskBuilder b(trace);
    tss::AddressSpace mem(0x40000000);
    std::vector<std::uint64_t> objs;
    for (unsigned i = 0; i < 96; ++i)
        objs.push_back(mem.alloc(512));

    tss::Rng rng(seed);
    constexpr unsigned reads = 9, writes = 3;
    for (unsigned t = 0; t < tasks; ++t) {
        std::vector<unsigned> picks;
        while (picks.size() < reads + writes) {
            auto cand = static_cast<unsigned>(rng.range(objs.size()));
            bool dup = false;
            for (unsigned p : picks)
                dup |= p == cand;
            if (!dup)
                picks.push_back(cand);
        }
        b.begin(0,
                static_cast<tss::Cycle>(rng.rangeInclusive(300, 600)));
        for (unsigned i = 0; i < reads; ++i)
            b.in(objs[picks[i]], 512);
        for (unsigned i = 0; i < writes; ++i)
            b.out(objs[picks[reads + i]], 512);
        b.commit();
    }
    return trace;
}

tss::PipelineConfig
wideConfig(unsigned sim_threads)
{
    tss::PipelineConfig cfg = tss::paperConfig(256);
    cfg.numPipelines = 4;
    cfg.slicePacketCredits = 1;
    cfg.lookaheadMatrix = true;
    cfg.simThreads = sim_threads;
    return cfg;
}

} // namespace

Outcome
runWideMt(const Options &opt, SpanLog &log)
{
    Outcome out;
    tss::TaskTrace trace;
    std::vector<unsigned> thread_of;
    double setup_s = timeSetup([&] {
        SpanLog::Scope s = log.span("workload.gen");
        trace = makeWideTrace(kTasks, opt.seed);
        thread_of.assign(trace.size(), 0);
        for (std::size_t t = 0; t < trace.size(); ++t)
            thread_of[t] = static_cast<unsigned>(t % kGenThreads);
    });
    tss::DepGraph graph = tss::DepGraph::build(trace);

    tss::RunResult reference;
    bool have_reference = false;
    std::vector<double> untraced_wall, traced_wall, run1, run4;
    std::vector<SimTiming> traced_sims;

    auto one = [&](unsigned threads, const char *what) {
        SimRun r = simulate(wideConfig(threads), trace, thread_of, log);
        if (!checkRun(r, trace, graph, out, what))
            return r;
        if (!have_reference) {
            reference = r.result;
            out.totals.add(r.result);
            have_reference = true;
        }
        out.check(identical(r.result, reference),
                  std::string("wide_mt: ") + what +
                      " diverged from the first simulation");
        return r;
    };

    measureLoop(opt, opt.seconds, log, [&](bool traced) {
        SimRun single = one(1, "1-thread simulation");
        (traced ? traced_wall : untraced_wall).push_back(single.t.total());
        if (!traced)
            return;
        SimRun four = one(4, "4-thread simulation");
        traced_sims.push_back(single.t);
        traced_sims.push_back(four.t);
        run1.push_back(single.t.run);
        run4.push_back(four.t.run);
    });

    const SimTotals &t = out.totals;
    if (opt.seed == 1) {
        // bench/fig18_sim_speedup --full (BENCH_sim.json capture).
        out.check(t.simCycles == 2'269'110 && t.events == 1'600'628 &&
                      t.messages == 622'168 && t.windows == 615'396,
                  "wide_mt: seed 1 does not reproduce fig18 --full");
    }

    if (!opt.traced) {
        addEndToEnd(out, untraced_wall, 1, setup_s);
        return out;
    }
    out.add("sim.speedup_4t", median(run1) / median(run4), "ratio");
    addCounterMetrics(out, t);
    addStageMetrics(out, traced_sims, run1, t.events);
    out.add("workload.gen_ms", setup_s * 1e3, "ms");
    addOverhead(out, untraced_wall, traced_wall);
    return out;
}

} // namespace perfbench
