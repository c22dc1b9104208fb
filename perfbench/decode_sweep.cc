/**
 * @file
 * decode_sweep: the Figure 12 grid. Cholesky and H264 at scale 0.05,
 * each over TRS {1..64} x ORT {1,2,4,8} with the capability-probe
 * capacities of bench/fig12_decode_rate.cpp, on paperConfig(256) with
 * one pipeline and one simulation thread: 56 short simulations per
 * trace. It stresses System build and teardown, the frontend handlers
 * and the one-thread engine path; it bypasses serve, relocation and
 * the multi-thread engine. Narrow Cholesky tasks (<= 3 operands) are
 * ORT-bound, wide H264 tasks (> 6 operands) are TRS- and NoC-bound.
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hh"
#include "driver/experiment.hh"

namespace perfbench
{

namespace
{

constexpr double kScale = 0.05;
const std::vector<unsigned> kTrsCounts = {1, 2, 4, 8, 16, 32, 64};
const std::vector<unsigned> kOrtCounts = {1, 2, 4, 8};
const char *const kTraces[] = {"Cholesky", "H264"};
/// Paper decode rate at 4 TRS / 4 ORT (the fig12 footer).
const double kPaperCycles[] = {185, 300};

tss::PipelineConfig
gridConfig(unsigned trs, unsigned ort)
{
    tss::PipelineConfig cfg = tss::paperConfig(256);
    cfg.numTrs = trs;
    cfg.numOrt = ort;
    // Capability probe: no capacity stalls (see fig12_decode_rate).
    cfg.trsTotalBytes = 24u * 1024 * 1024;
    cfg.ortTotalBytes = 4u * 1024 * 1024;
    cfg.ovtTotalBytes = 4u * 1024 * 1024;
    return cfg;
}

} // namespace

Outcome
runDecodeSweep(const Options &opt, SpanLog &log)
{
    Outcome out;
    std::vector<tss::TaskTrace> traces;
    double setup_s = timeSetup([&] {
        SpanLog::Scope s = log.span("workload.gen");
        traces.clear();
        for (const char *name : kTraces)
            traces.push_back(tss::makeWorkload(name, kScale, opt.seed));
    });
    std::vector<tss::DepGraph> graphs;
    for (const tss::TaskTrace &t : traces)
        graphs.push_back(tss::DepGraph::build(t));

    double paper_point[2] = {0, 0};
    std::vector<double> untraced_wall, traced_wall, traced_run;
    std::vector<SimTiming> traced_sims;
    bool first_pass = true;

    measureLoop(opt, opt.seconds, log, [&](bool traced) {
        SimTotals totals;
        std::vector<SimRun> runs;
        double run_s = 0;
        SpanLog::Scope pass = log.span("bench.pass");
        for (std::size_t w = 0; w < traces.size(); ++w) {
            for (unsigned trs : kTrsCounts) {
                for (unsigned ort : kOrtCounts) {
                    runs.push_back(simulate(gridConfig(trs, ort),
                                            traces[w], {}, log));
                    if (trs == 4 && ort == 4)
                        paper_point[w] =
                            runs.back().result.decodeRateCycles;
                }
            }
        }
        double wall = pass.close();

        std::size_t i = 0;
        for (std::size_t w = 0; w < traces.size(); ++w) {
            for (unsigned trs : kTrsCounts) {
                for (unsigned ort : kOrtCounts) {
                    const SimRun &r = runs[i++];
                    checkRun(r, traces[w], graphs[w], out,
                             std::string(kTraces[w]) + " " +
                                 std::to_string(trs) + " TRS/" +
                                 std::to_string(ort) + " ORT");
                    totals.add(r.result);
                    run_s += r.t.run;
                    if (traced)
                        traced_sims.push_back(r.t);
                }
            }
        }
        if (first_pass)
            out.totals = totals;
        out.check(totals == out.totals,
                  "decode_sweep: pass totals differ from the first pass");
        first_pass = false;
        (traced ? traced_wall : untraced_wall).push_back(wall);
        if (traced)
            traced_run.push_back(run_s);
    });

    const SimTotals &t = out.totals;
    for (std::size_t w = 0; w < traces.size(); ++w) {
        char note[256];
        std::snprintf(note, sizeof note,
                      "paper reference (error of an unvalidated model; "
                      "informational, not gated): %s at 4 TRS/4 ORT "
                      "%.1f cy/task vs paper ~%.0f cy (%+.0f%%)",
                      kTraces[w], paper_point[w], kPaperCycles[w],
                      (paper_point[w] / kPaperCycles[w] - 1) * 100);
        out.notes.push_back(note);
    }
    if (opt.seed == 1) {
        // bench/fig12_decode_rate --quick at seed 1 (BENCH_kernel.json).
        out.check(t.events == 19'186'403 && t.messages == 7'289'548 &&
                      t.linkTraversals == 90'704'465 &&
                      std::lround(paper_point[0] * 10) == 1180 &&
                      std::lround(paper_point[1] * 10) == 2314,
                  "decode_sweep: seed 1 does not reproduce the fig12 "
                  "--quick grid");
    }

    if (!opt.traced) {
        addEndToEnd(out, untraced_wall, 1, setup_s);
        return out;
    }

    // sim.speedup_4t on one representative cell (H264, 8 TRS/4 ORT):
    // the grid's machine has two engine domains (pipeline, backend).
    std::vector<double> run1, run4;
    tss::PipelineConfig cfg = gridConfig(8, 4);
    for (int rep = 0; rep < 3; ++rep) {
        cfg.simThreads = 1;
        SimRun one = simulate(cfg, traces[1], {}, log);
        cfg.simThreads = 4;
        SimRun four = simulate(cfg, traces[1], {}, log);
        checkRun(one, traces[1], graphs[1], out, "H264 8/4, 1 thread");
        checkRun(four, traces[1], graphs[1], out, "H264 8/4, 4 threads");
        out.check(identical(one.result, four.result),
                  "decode_sweep: 4-thread run diverged from 1 thread");
        run1.push_back(one.t.run);
        run4.push_back(four.t.run);
    }
    out.add("sim.speedup_4t", median(run1) / median(run4), "ratio");
    addCounterMetrics(out, t);
    addStageMetrics(out, traced_sims, traced_run, t.events);
    out.add("workload.gen_ms", setup_s * 1e3, "ms");
    addOverhead(out, untraced_wall, traced_wall);
    return out;
}

} // namespace perfbench
