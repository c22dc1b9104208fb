/**
 * @file
 * Regenerates Figure 12: task decode rate (average cycles between two
 * successive additions to the task graph) as a function of the number
 * of TRSs (1..64) and ORTs (1, 2, 4, 8), for Cholesky (top panel) and
 * H264 (bottom panel).
 *
 * Expected shape: more TRSs and more ORTs monotonically speed up
 * decode. Cholesky (<= 3 operands) is ORT-bound around ~250 cycles
 * with one ORT; H264 (> 6 operands for 94% of tasks) needs ~700+
 * cycles with one ORT and generates enough inter-TRS traffic that ORT
 * parallelism only shows once several TRSs share the load.
 *
 * This is a decode-*capability* probe: ORT/OVT/TRS capacities are
 * oversized so the measured rate reflects pipeline parallelism, not
 * window-capacity stalls (capacity effects are Figures 14/15's
 * subject; at paper capacities H264's large live set would otherwise
 * dominate the metric with gateway stalls).
 *
 * Usage: fig12_decode_rate [--quick|--full|--scale=X] [--json]
 *
 * `--json` prints the grids as the BENCH_kernel.json section
 * `fig12_quick_decode_rates` (`fig12_decode_rates` without --quick),
 * {workload: {"TRSxORT": cycles_per_task}}, on stdout and the tables
 * on stderr. bench/compare_bench.py gates the grid exactly.
 */

#include <iostream>
#include <vector>

#include "driver/cli.hh"
#include "driver/experiment.hh"
#include "driver/table.hh"

namespace
{

/** One panel: a table on @p os, the cells into @p grid. */
void
panel(const std::string &workload, double scale, std::uint64_t seed,
      std::ostream &os, tss::JsonObject &grid)
{
    const std::vector<unsigned> trs_counts = {1, 2, 4, 8, 16, 32, 64};
    const std::vector<unsigned> ort_counts = {1, 2, 4, 8};

    tss::TaskTrace trace = tss::makeWorkload(workload, scale, seed);
    os << workload << " (" << trace.size() << " tasks)\n";

    std::vector<std::string> header{"#TRS"};
    for (unsigned orts : ort_counts)
        header.push_back(std::to_string(orts) + " ORT [cy/task]");
    tss::TablePrinter table(std::move(header));

    for (unsigned trss : trs_counts) {
        std::vector<std::string> row{std::to_string(trss)};
        for (unsigned orts : ort_counts) {
            tss::PipelineConfig cfg = tss::paperConfig(256);
            cfg.numTrs = trss;
            cfg.numOrt = orts;
            // Capability probe: no capacity stalls (see header).
            cfg.trsTotalBytes = 24u * 1024 * 1024;
            cfg.ortTotalBytes = 4u * 1024 * 1024;
            cfg.ovtTotalBytes = 4u * 1024 * 1024;
            tss::RunResult result = tss::runHardware(cfg, trace);
            row.push_back(
                tss::TablePrinter::num(result.decodeRateCycles));
            grid.set(std::to_string(trss) + "x" + std::to_string(orts),
                     row.back());
        }
        table.addRow(row);
    }
    table.print(os);
    os << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    tss::CliArgs args(argc, argv);
    double scale = args.scale(0.05, 0.3, 0.15);
    std::uint64_t seed = args.getLong("seed", 1);
    bool json = args.has("json");
    // With --json the tables go to stderr; stdout carries only JSON.
    std::ostream &text = json ? std::cerr : std::cout;

    tss::JsonObject out;
    tss::JsonObject &grids = out[args.has("quick")
                                     ? "fig12_quick_decode_rates"
                                     : "fig12_decode_rates"];
    text << "Figure 12: task decode rate vs pipeline parallelism"
         << " (scale=" << scale << ")\n\n";
    panel("Cholesky", scale, seed, text, grids["Cholesky"]);
    panel("H264", scale, seed, text, grids["H264"]);
    text << "Paper reference: Cholesky ~185 cy at 4 TRS/4 ORT; "
         << "H264 ~300 cy at the same point, ~700+ cy with one ORT.\n";
    if (json) {
        out.print(std::cout);
        std::cout << "\n";
    }
    return 0;
}
