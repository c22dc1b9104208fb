/**
 * @file
 * Reproduces Figure 1: the task dependency graph of a 5x5 blocked
 * Cholesky decomposition (35 tasks, shaded by kernel), written as
 * Graphviz DOT to stdout. Render with:
 *
 *   cholesky_graph | dot -Tpng -o cholesky.png
 *
 * --n=N (1-128) sets the block count.
 *
 * Also prints the graph facts the paper's introduction highlights:
 * the irregular structure and the distant parallelism (e.g. tasks 6
 * and 23 can run concurrently).
 */

#include <iostream>

#include "driver/cli.hh"
#include "graph/dataflow_limit.hh"
#include "graph/dep_graph.hh"
#include "graph/dot_export.hh"
#include "workload/workload.hh"

int
main(int argc, char **argv)
{
    tss::CliArgs args(argc, argv);
    auto n = static_cast<unsigned>(args.getBounded("n", 1, 128).value_or(5));

    tss::TaskTrace trace = tss::genCholeskyBlocked(n);
    tss::DepGraph graph = tss::DepGraph::build(trace);

    tss::DotOptions options;
    options.showKinds = args.has("kinds");
    tss::writeDot(std::cout, trace, graph, options);

    std::cerr << "# " << trace.size() << " tasks, "
              << graph.numEdges() << " dependency edges\n";

    if (n == 5) {
        // The paper's example: tasks 6 and 23 (1-based creation
        // order) are independent despite being 17 tasks apart.
        tss::DataflowSchedule sched =
            tss::computeDataflowLimit(trace, graph);
        bool concurrent =
            sched.start[5] < sched.finish[22] &&
            sched.start[22] < sched.finish[5];
        std::cerr << "# tasks 6 and 23 can run in parallel: "
                  << (concurrent ? "yes" : "no") << "\n";
    }
    return 0;
}
