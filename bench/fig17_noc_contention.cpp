/**
 * @file
 * NoC contention sweep ("figure 17" — beyond the paper): how much of
 * the sharded frontend's multi-pipeline decode scaling survives
 * realistic interconnect distances, and how much gateway-side packet
 * batching buys back.
 *
 * Panel 1 sweeps topology (ring / 2D mesh / fixed-latency oracle) x
 * station placement (adjacent / spread / random, noc/placement.hh) x
 * operand batching (64 B DecodeBatch packets) with slice packet
 * credits enabled (PipelineConfig::slicePacketCredits), so the
 * gateway->slice->gateway round trip is on the decode path. Programs:
 *
 *  - "wide": a deterministic synthetic shared-data program of
 *    12-operand tasks over a small object pool — the ROADMAP's "wide
 *    tasks" regime where several operands of a task land on the same
 *    slice. This program carries the acceptance-shape gates: spread
 *    placement must degrade decode throughput vs adjacent, and
 *    batching under spread must recover a measurable fraction.
 *  - blocked Cholesky and Jacobi (the shared-data real programs of
 *    fig16): realistic narrow-task reference rows. Their tasks have
 *    3-5 operands over totalOrt slices, so batches rarely fill —
 *    they show where batching does *not* pay. Their captured traces
 *    are *relocated* onto the synthetic AddressSpace
 *    (trace/relocate.hh), so these rows are bit-deterministic across
 *    runs and machines and CI-gated in BENCH_noc.json like the wide
 *    rows (before relocation, heap/ASLR addresses made their shardOf
 *    routing — and timing — vary run to run, and they were dropped).
 *    `--relocate-seed=N` re-lays the regions out by seeded shuffle
 *    for layout-sensitivity experiments (off the CI path).
 *
 * Panel 2 is the ticket-protocol cost ablation (ROADMAP item): the
 * same programs decoded with the real ordered-admission protocol vs
 * the idealAdmission oracle that admits operands at zero protocol
 * cost (FrontendStats::decodeDeferrals counts the parked operands).
 * Oracle decisions are never replayed — see PipelineConfig.
 *
 * Panel 3 sweeps --relocate-seed over the real-kernel programs: each
 * seeded layout is deterministic, but timing may shift between
 * layouts (addresses drive shardOf routing), so its rows are
 * *advisory* in BENCH_noc.json. The JSON also carries the pinned
 * minimum-safe OVT bound (tests/ovt_bound.hh) as capture metadata;
 * the compare_bench selftest cross-checks it against the baseline.
 *
 * Every non-oracle decision is checked against the renamed
 * dependency graph (start order must be topological) and the bench
 * exits non-zero on violation or on a failed shape gate. All
 * simulated metrics are deterministic, so CI gates them against
 * BENCH_noc.json via bench/compare_bench.py.
 *
 * Usage: fig17_noc_contention [--quick|--full] [--json]
 *        [--trace=off|tail|full]
 *        [--pipes=N] [--gen-threads=N] [--credits=N]
 *        [--relocate-seed=N] [--relocate-align=N]
 *
 * `--json` prints the numbers as the BENCH_noc.json section
 * `fig17_quick` (`fig17_full` without --quick) on stdout and the
 * tables on stderr.
 */

#include <cstdlib>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "driver/cli.hh"
#include "driver/experiment.hh"
#include "driver/table.hh"
#include "graph/dep_graph.hh"
#include "sim/random.hh"
#include "workload/address_space.hh"
#include "workload/builder.hh"
#include "workload/starss_programs.hh"

#include "../tests/ovt_bound.hh"

namespace
{

/**
 * Deterministic wide-task shared-data trace: every task reads 9 and
 * writes 3 of a 96-object pool. With 8 generating threads splitting
 * the stream round-robin, the objects are heavily shared across
 * threads (ordered decode) and each task has several operands per
 * directory slice (batchable).
 */
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
        b.begin(0, static_cast<tss::Cycle>(rng.rangeInclusive(300, 600)));
        for (unsigned i = 0; i < reads; ++i)
            b.in(objs[picks[i]], 512);
        for (unsigned i = 0; i < writes; ++i)
            b.out(objs[picks[reads + i]], 512);
        b.commit();
    }
    return trace;
}

struct SweepProg
{
    std::string name;
    tss::TaskTrace trace;
    bool gated; ///< carries the acceptance-shape checks
};

struct SweepPoint
{
    tss::TopologyKind topology;
    tss::PlacementKind placement;
    bool batch;
};

std::string
pointKey(const SweepPoint &pt)
{
    return std::string(tss::toString(pt.topology)) + "/" +
        tss::toString(pt.placement) + (pt.batch ? "/batch" : "/solo");
}

int failures = 0;

void
checkTopological(const tss::TaskTrace &trace,
                 const tss::RunResult &decision, const std::string &prog,
                 const std::string &config)
{
    tss::DepGraph renamed =
        tss::DepGraph::build(trace, tss::Semantics::Renamed);
    if (!renamed.isTopologicalOrder(decision.startOrder)) {
        std::cerr << "BUG: " << prog << " [" << config
                  << "] started out of dependence order\n";
        ++failures;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    tss::CliArgs args(argc, argv);
    tss::RunOptions opts = tss::RunOptions::parse(args);
    bool quick = args.scale(0.0, 1.0, 1.0) < 0.5; // --quick selects 0
    bool json = args.has("json");
    // With --json the tables go to stderr; stdout carries only JSON.
    std::ostream &text = json ? std::cerr : std::cout;
    unsigned pipes = opts.pipes.value_or(4);
    unsigned gen_threads = opts.genThreads(8);
    unsigned credits = opts.credits.value_or(1);
    // --trace=off proves in CI that the default tail-mode tracer
    // never perturbs the gated simulated cells.
    const std::optional<tss::obs::TraceMode> trace_mode =
        opts.traceMode;

    // This bench CI-gates relocated real-kernel rows, so it relocates
    // unconditionally; --relocate-seed/--relocate-align still apply.
    tss::RelocationOptions reloc;
    opts.apply(reloc);

    // Real-kernel reference programs, relocated onto the synthetic
    // address space: every simulated number below is a pure function
    // of (program, config) — ASLR-free, CI-gateable. The programs
    // stay alive past the sweep for the relocation-seed panel.
    auto chol = quick ? tss::starss::makeCholeskyProgram(1, 9, 8)
                      : tss::starss::makeCholeskyProgram(1, 12, 12);
    auto jac = quick ? tss::starss::makeJacobiProgram(1, 16, 32, 6)
                     : tss::starss::makeJacobiProgram(1, 24, 32, 10);

    std::vector<SweepProg> programs;
    programs.push_back(
        {"wide", makeWideTrace(quick ? 600 : 2000, 1), true});
    programs.push_back(
        {"cholesky", chol->context().relocatedTrace(reloc), false});
    programs.push_back(
        {"jacobi", jac->context().relocatedTrace(reloc), false});

    const SweepPoint sweep[] = {
        {tss::TopologyKind::Ring, tss::PlacementKind::Adjacent, false},
        {tss::TopologyKind::Ring, tss::PlacementKind::Adjacent, true},
        {tss::TopologyKind::Ring, tss::PlacementKind::Spread, false},
        {tss::TopologyKind::Ring, tss::PlacementKind::Spread, true},
        {tss::TopologyKind::Ring, tss::PlacementKind::Random, false},
        {tss::TopologyKind::Mesh, tss::PlacementKind::Adjacent, false},
        {tss::TopologyKind::Mesh, tss::PlacementKind::Spread, false},
        {tss::TopologyKind::Mesh, tss::PlacementKind::Spread, true},
        {tss::TopologyKind::Fixed, tss::PlacementKind::Adjacent, false},
    };

    text << "Figure 17: NoC topology x placement x batching on "
         << "the sharded frontend\n(" << pipes << " pipelines, "
         << gen_threads << " generating threads, " << credits
         << " slice packet credits, shared data"
         << (quick ? ", --quick" : "") << ")\n\n";

    tss::TablePrinter table({"Program", "Topology", "Placement",
                             "Batch", "decode cy/task", "makespan",
                             "msgs", "lane-wait cy", "fill"});
    // The wide program's rows sit flat under the historical keys
    // ("sweep", "ticket"); real-kernel rows nest by program under
    // "real_sweep" / "real_ticket".
    tss::JsonObject out;
    auto section = [&out](const std::string &name,
                          const std::string &prog) -> tss::JsonObject & {
        return prog == "wide" ? out[name] : out["real_" + name][prog];
    };

    for (const SweepProg &prog : programs) {
        std::map<std::string, double> decode;
        for (const SweepPoint &pt : sweep) {
            tss::PipelineConfig cfg = tss::paperConfig(256);
            cfg.numPipelines = pipes;
            cfg.slicePacketCredits = credits;
            if (trace_mode)
                cfg.traceMode = *trace_mode;
            cfg.nocTopology = pt.topology;
            cfg.nocPlacement = pt.placement;
            cfg.batchOperands = pt.batch;
            tss::RunResult r =
                tss::runHardwareThreads(cfg, prog.trace, gen_threads);
            checkTopological(prog.trace, r, prog.name, pointKey(pt));
            decode[pointKey(pt)] = r.decodeRateCycles;

            table.addRow({prog.name, tss::toString(pt.topology),
                          tss::toString(pt.placement),
                          pt.batch ? "on" : "off",
                          tss::TablePrinter::num(r.decodeRateCycles),
                          std::to_string(r.makespan),
                          std::to_string(r.messagesOnNoc),
                          std::to_string(r.linkWaitCycles),
                          tss::TablePrinter::num(r.avgBatchFill)});
            section("sweep", prog.name)[pointKey(pt)]
                .set("decode_cy", r.decodeRateCycles)
                .set("messages", r.messagesOnNoc)
                .set("lane_wait_cy", r.linkWaitCycles)
                .set("batch_fill", r.avgBatchFill);
        }

        // The acceptance shape, on the wide-task program: a
        // realistic floorplan costs decode throughput, batching buys
        // a measurable fraction back.
        if (!prog.gated)
            continue;
        double adjacent = decode["ring/adjacent/solo"];
        double spread = decode["ring/spread/solo"];
        double spread_batched = decode["ring/spread/batch"];
        if (!(spread > adjacent * 1.02)) {
            std::cerr << "BUG: " << prog.name << ": spread placement "
                      << "did not degrade decode (" << spread << " vs "
                      << adjacent << " cy/task)\n";
            ++failures;
        }
        if (!(spread_batched < spread * 0.97)) {
            std::cerr << "BUG: " << prog.name << ": batching did not "
                      << "recover decode under spread placement ("
                      << spread_batched << " vs " << spread
                      << " cy/task)\n";
            ++failures;
        }
    }
    table.print(text);

    // ------------------------------------------------ ticket ablation
    text << "\nTicket-protocol cost (real ordered admission vs "
         << "idealAdmission oracle, ring/adjacent)\n\n";
    tss::TablePrinter ticket({"Program", "Pipes", "real cy/task",
                              "ideal cy/task", "overhead",
                              "deferrals"});

    for (const SweepProg &prog : programs) {
        for (unsigned p : {1u, pipes}) {
            double real = 0, ideal = 0;
            std::uint64_t deferrals = 0;
            for (bool oracle : {false, true}) {
                tss::PipelineConfig cfg = tss::paperConfig(256);
                cfg.numPipelines = p;
                cfg.slicePacketCredits = credits;
                if (trace_mode)
                    cfg.traceMode = *trace_mode;
                cfg.idealAdmission = oracle;
                tss::RunResult r = tss::runHardwareThreads(
                    cfg, prog.trace, gen_threads);
                if (!oracle) {
                    checkTopological(prog.trace, r, prog.name,
                                     "ticket");
                    real = r.decodeRateCycles;
                    deferrals = r.decodeDeferrals;
                } else {
                    ideal = r.decodeRateCycles;
                }
            }
            double overhead =
                ideal > 0 ? (real - ideal) / ideal * 100.0 : 0;
            ticket.addRow({prog.name, std::to_string(p),
                           tss::TablePrinter::num(real),
                           tss::TablePrinter::num(ideal),
                           tss::TablePrinter::num(overhead) + "%",
                           std::to_string(deferrals)});
            section("ticket", prog.name)[std::to_string(p)]
                .set("decode_real_cy", real)
                .set("decode_ideal_cy", ideal)
                .set("overhead_pct", overhead)
                .set("deferrals", deferrals);
        }
    }
    ticket.print(text);

    // -------------------------------------- relocation layout panel
    // Layout sensitivity of the relocated real-kernel rows: the same
    // captured programs re-laid-out by seeded shuffle
    // (RelocationOptions::layoutSeed, the --relocate-seed axis). Each
    // seed is individually deterministic, but decode timing may
    // legitimately shift with the layout (shardOf routing follows the
    // addresses), so these rows are *advisory* in BENCH_noc.json —
    // they document the spread, they do not gate.
    text << "\nRelocation layout sensitivity "
         << "(--relocate-seed sweep, ring/adjacent)\n\n";
    tss::TablePrinter relocTable({"Program", "Seed", "decode cy/task",
                                  "makespan", "msgs"});
    struct RelocProg
    {
        std::string name;
        tss::starss::RealProgram *program;
    };
    const RelocProg reloc_programs[] = {{"cholesky", chol.get()},
                                        {"jacobi", jac.get()}};
    for (const RelocProg &prog : reloc_programs) {
        for (std::uint64_t seed : {0ULL, 1ULL, 2ULL}) {
            tss::RelocationOptions opts = reloc;
            opts.layoutSeed = seed;
            tss::TaskTrace trace =
                prog.program->context().relocatedTrace(opts);

            tss::PipelineConfig cfg = tss::paperConfig(256);
            cfg.numPipelines = pipes;
            cfg.slicePacketCredits = credits;
            if (trace_mode)
                cfg.traceMode = *trace_mode;
            tss::RunResult r =
                tss::runHardwareThreads(cfg, trace, gen_threads);
            checkTopological(trace, r, prog.name,
                             "relocate-seed " + std::to_string(seed));

            relocTable.addRow({prog.name, std::to_string(seed),
                               tss::TablePrinter::num(r.decodeRateCycles),
                               std::to_string(r.makespan),
                               std::to_string(r.messagesOnNoc)});
            out["relocate_sweep"][prog.name][std::to_string(seed)]
                .set("decode_cy", r.decodeRateCycles)
                .set("makespan", r.makespan)
                .set("messages", r.messagesOnNoc);
        }
    }
    relocTable.print(text);
    if (json) {
        // Capture metadata: the minimum-safe OVT bound pinned by the
        // OvtCapacity tests, cross-checked by the compare_bench
        // selftest.
        out.set("ovt_min_safe_slots_per_slice",
                tss::kMinSafeOvtSlotsPerSlice);
        std::cout << "{\"" << (quick ? "fig17_quick" : "fig17_full")
                  << "\": ";
        out.print(std::cout);
        std::cout << "}\n";
    }

    if (failures) {
        std::cerr << "\n" << failures << " check(s) failed\n";
        return 1;
    }
    text << "\nAll start orders topological; sweep shape checks "
         << "passed.\n";
    return 0;
}
