/**
 * @file
 * Interactive exploration of the task superscalar design space: run
 * any of the nine paper benchmarks through the pipeline (and the
 * software-runtime baseline) with every knob on the command line.
 *
 * Usage (every knob is a tss::RunOptions knob, shared with the
 * benches and tss-serve — see driver/run_options.hh):
 *   pipeline_explorer --workload=Cholesky --scale=0.3 --cores=256 \
 *       --trs=8 --ort=2 --trs-kb=6144 --ort-kb=512 [--sw] [--csv] \
 *       [--pipes=N] [--gen-threads=N] [--topology=fixed|ring|mesh] \
 *       [--placement=adjacent|spread|random] [--batch] [--credits=N] \
 *       [--relocate] [--relocate-seed=N]
 */

#include <iostream>

#include "driver/cli.hh"
#include "driver/experiment.hh"
#include "driver/table.hh"
#include "graph/dataflow_limit.hh"
#include "graph/dep_graph.hh"
#include "trace/trace_stats.hh"

int
main(int argc, char **argv)
{
    tss::CliArgs args(argc, argv);
    tss::RunOptions opts = tss::RunOptions::parse(args);

    std::string name = args.get("workload", "Cholesky");
    double scale = args.getDouble("scale", 0.3);

    tss::TaskTrace trace =
        tss::makeWorkload(name, scale, args.getLong("seed", 1));
    opts.maybeRelocate(trace);
    tss::TraceStats tstats = tss::TraceStats::compute(trace);

    tss::PipelineConfig cfg = tss::paperConfig(256);
    opts.apply(cfg);
    unsigned cores = cfg.numCores;
    unsigned gen_threads = opts.genThreads(cfg.numPipelines);

    std::cout << "workload " << name << ": " << trace.size()
              << " tasks, avg data "
              << tss::TablePrinter::num(tstats.avgDataKB) << " KB, "
              << "runtime min/med/avg "
              << tss::TablePrinter::num(tstats.minRuntimeUs) << "/"
              << tss::TablePrinter::num(tstats.medRuntimeUs) << "/"
              << tss::TablePrinter::num(tstats.avgRuntimeUs)
              << " us\n";

    tss::DepGraph graph = tss::DepGraph::build(trace);
    tss::DataflowSchedule limit = tss::computeDataflowLimit(trace, graph);
    std::cout << "dataflow limit: parallelism "
              << tss::TablePrinter::num(limit.parallelism())
              << ", ideal speedup on " << cores << " cores "
              << tss::TablePrinter::num(limit.speedupBound(cores))
              << "\n\n";

    std::vector<unsigned> thread_of(trace.size());
    for (std::size_t t = 0; t < trace.size(); ++t)
        thread_of[t] = static_cast<unsigned>(t % gen_threads);
    auto sys = tss::SystemBuilder(cfg, trace)
                   .threads(std::move(thread_of))
                   .build();
    tss::RunResult hw = sys->run();
    std::cout << "task superscalar (" << cfg.numPipelines
              << " pipeline(s) of " << cfg.numTrs << " TRS, "
              << cfg.numOrt << " ORT/OVT, "
              << tss::toString(cfg.nocTopology) << "/"
              << tss::toString(cfg.nocPlacement) << " NoC, " << cores
              << " cores):\n"
              << "  speedup            "
              << tss::TablePrinter::num(hw.speedup) << "\n"
              << "  decode rate        "
              << tss::TablePrinter::num(hw.decodeRateCycles)
              << " cycles/task ("
              << tss::TablePrinter::num(hw.decodeRateNs) << " ns)\n"
              << "  window occupancy   "
              << tss::TablePrinter::num(hw.avgTasksInFlight)
              << " avg / "
              << tss::TablePrinter::num(hw.peakTasksInFlight)
              << " peak tasks\n"
              << "  chain length       p95 "
              << tss::TablePrinter::num(hw.chainP95) << ", max "
              << tss::TablePrinter::num(hw.chainMax) << "\n"
              << "  TRS fragmentation  "
              << tss::TablePrinter::num(hw.avgFragmentation * 100)
              << "%\n"
              << "  1-cycle allocs     "
              << tss::TablePrinter::num(hw.sramHitRate * 100) << "%\n"
              << "  stalls (cycles)    gateway(ORT-full) "
              << hw.gatewayStallCycles << ", window-full "
              << hw.allocWaitCycles << ", thread-blocked "
              << hw.sourceStallCycles << "\n"
              << "  renamed versions   " << hw.versionsRenamed << " / "
              << hw.versionsCreated << ", DMA write-backs "
              << hw.dmaWritebacks << "\n"
              << "  NoC messages       " << hw.messagesOnNoc
              << ", events " << hw.eventsExecuted << "\n"
              << "  NoC links          lane waits "
              << hw.linkWaitCycles << " cy, busiest "
              << tss::TablePrinter::num(hw.maxLinkUtilization * 100)
              << "% busy, batches " << hw.operandBatches
              << ", deferrals " << hw.decodeDeferrals << "\n";

    if (args.has("sw")) {
        tss::SwRuntimeConfig sw_cfg;
        sw_cfg.numCores = cores;
        tss::SwRunResult sw = tss::runSoftware(sw_cfg, trace);
        std::cout << "\nsoftware runtime (" << cores << " cores):\n"
                  << "  speedup            "
                  << tss::TablePrinter::num(sw.speedup) << "\n"
                  << "  decode rate        "
                  << tss::TablePrinter::num(sw.decodeRateCycles)
                  << " cycles/task\n";
    }
    return 0;
}
