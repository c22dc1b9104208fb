/**
 * @file
 * Windowed-engine throughput ("figure 18" — host-side, beyond the
 * paper): event-drain rate of the sequential windowed engine
 * (sim/sim_engine.hh) over a 4-pipeline machine, on the wide-task
 * shared-data program of fig17.
 *
 * Two kinds of numbers come out:
 *
 *  - *Determinism* (gated exactly in CI): the makespan/event/message/
 *    version quadruple and the engine's window/fusion counters,
 *    re-checked by compare_bench.py against BENCH_sim.json.
 *  - *Throughput* (advisory): best wall seconds and events/second.
 *    Wall time is not comparable across machines, so it never gates;
 *    the machine fingerprint in BENCH_sim.json tells a reader how to
 *    weigh it.
 *
 * Output is a JSON object on stdout (consumed by
 * `compare_bench.py capture`); human-readable progress goes to
 * stderr.
 *
 * Usage: fig18_sim_speedup [--quick|--full] [--pipes=N]
 *        [--gen-threads=N] [--reps=N]
 */

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "driver/cli.hh"
#include "driver/experiment.hh"
#include "sim/random.hh"
#include "workload/address_space.hh"
#include "workload/builder.hh"

namespace
{

/** The fig17 wide-task shared-data generator (see that bench). */
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

} // namespace

int
main(int argc, char **argv)
{
    tss::CliArgs args(argc, argv);
    tss::RunOptions opts = tss::RunOptions::parse(args);
    bool quick = args.scale(0.0, 1.0, 1.0) < 0.5; // --quick selects 0
    unsigned pipes = opts.pipes.value_or(4);
    unsigned gen_threads = opts.genThreads(8);
    auto reps = static_cast<unsigned>(
        args.getBounded("reps", 1, 100).value_or(quick ? 1 : 3));

    tss::TaskTrace trace = makeWideTrace(quick ? 1000 : 6000, 1);

    tss::PipelineConfig cfg = tss::paperConfig(256);
    cfg.numPipelines = pipes;
    cfg.slicePacketCredits = 1;

    std::cerr << "# fig18: wide x " << trace.size() << " tasks, "
              << pipes << " pipelines, " << gen_threads
              << " generating threads, best of " << reps << " rep(s)\n";

    tss::RunResult r;
    double best = 0;
    for (unsigned rep = 0; rep < reps; ++rep) {
        auto begin = std::chrono::steady_clock::now();
        r = tss::runHardwareThreads(cfg, trace, gen_threads);
        auto end = std::chrono::steady_clock::now();
        double wall = std::chrono::duration<double>(end - begin).count();
        if (rep == 0 || wall < best)
            best = wall;
    }
    double eps =
        best > 0 ? static_cast<double>(r.eventsExecuted) / best : 0;
    std::cerr << "#   " << best << " s, " << eps << " events/s\n";

    std::cout << "{\n  \"machine\": {\"hardware_concurrency\": "
              << std::thread::hardware_concurrency() << "},\n";
    std::cout << "  \"workload\": {\"name\": \"wide\", \"tasks\": "
              << trace.size() << ", \"pipelines\": " << pipes
              << ", \"gen_threads\": " << gen_threads << "},\n";
    std::cout << "  \"determinism\": {\"makespan\": " << r.makespan
              << ", \"events\": " << r.eventsExecuted
              << ", \"messages\": " << r.messagesOnNoc
              << ", \"versions_created\": " << r.versionsCreated
              << "},\n";
    std::cout << "  \"windows\": {\"windows\": " << r.simWindows
              << ", \"single_shard\": " << r.simSingleShardWindows
              << ", \"fused\": " << r.simFusedWindows
              << ", \"multi_shard\": " << r.simMultiShardWindows
              << ", \"occupancy_sum\": " << r.simWindowOccupancySum
              << ", \"max_occupancy\": " << r.simMaxWindowOccupancy
              << "},\n";
    std::cout << "  \"throughput\": {\"wall_seconds\": " << best
              << ", \"events_per_sec\": " << eps << "}\n}\n";
    return 0;
}
