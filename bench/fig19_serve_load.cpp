/**
 * @file
 * tss-serve under load ("figure 19" — service-side, beyond the
 * paper): the multi-tenant trace service (src/serve/) driven by an
 * in-process load generator, reporting per-tenant latency percentiles
 * and throughput. Two phases, two kinds of numbers:
 *
 *  - *Closed loop* (gated hard in CI): each tenant submits a fixed
 *    panel of programs with retry-until-accepted, the service drains,
 *    and the per-tenant percentiles over per-job *simulated*
 *    makespans come out. A job's simulated makespan is a pure
 *    function of (program, machine config, tenant carve base), so
 *    these percentiles are byte-identical across runs and
 *    compare_bench.py --kind serve diffs them exactly.
 *  - *Open loop* (advisory, with one hard shape check): submissions
 *    fire as fast as the loop can go against capacity-1 stages and a
 *    single execute worker. Wall latencies and tasks/sec are
 *    host-dependent and never gate, but backpressure must
 *    demonstrably engage — zero Busy rejections under this load means
 *    the admission bound is broken, and the bench exits non-zero.
 *
 * Output is a JSON object on stdout (consumed by
 * `compare_bench.py capture`); progress goes to stderr.
 *
 * Usage: fig19_serve_load [--quick|--full] [--tenants=N] [--jobs=N]
 *        (tenants 1-64, one driver thread each; jobs 1-1000000)
 */

#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "driver/cli.hh"
#include "serve/service.hh"
#include "workload/address_space.hh"
#include "workload/builder.hh"

namespace
{

/** Chain of @p tasks dependent tasks (serial program). */
tss::TaskTrace
chainProgram(unsigned tasks, tss::Cycle runtime)
{
    tss::TaskTrace trace;
    trace.name = "chain";
    auto kernel = trace.addKernel("link");
    tss::TaskBuilder b(trace);
    tss::AddressSpace mem(0x5000'0000);
    std::uint64_t prev = mem.alloc(256);
    for (unsigned i = 0; i < tasks; ++i) {
        std::uint64_t next = mem.alloc(256);
        b.begin(kernel, runtime).in(prev, 256).out(next, 256);
        b.commit();
        prev = next;
    }
    return trace;
}

/** @p tasks independent tasks (embarrassingly parallel program). */
tss::TaskTrace
flatProgram(unsigned tasks, tss::Cycle runtime)
{
    tss::TaskTrace trace;
    trace.name = "flat";
    auto kernel = trace.addKernel("leaf");
    tss::TaskBuilder b(trace);
    tss::AddressSpace mem(0x5000'0000);
    for (unsigned i = 0; i < tasks; ++i) {
        b.begin(kernel, runtime)
            .in(mem.alloc(512), 512)
            .out(mem.alloc(512), 512);
        b.commit();
    }
    return trace;
}

/** The job panel one tenant submits in the closed-loop phase. */
std::vector<tss::TaskTrace>
tenantPanel(unsigned jobs)
{
    std::vector<tss::TaskTrace> panel;
    for (unsigned j = 0; j < jobs; ++j) {
        // Alternate serial and parallel programs, growing with the
        // job index so the percentiles spread over real variation.
        if (j % 2 == 0)
            panel.push_back(chainProgram(60 + 20 * j, 400));
        else
            panel.push_back(flatProgram(100 + 30 * j, 300));
    }
    return panel;
}

void
jsonSummary(std::ostream &os, const char *key,
            const tss::serve::PercentileSummary &s)
{
    os << "\"" << key << "\": {\"count\": " << s.count
       << ", \"p50\": " << s.p50 << ", \"p95\": " << s.p95
       << ", \"p99\": " << s.p99 << ", \"max\": " << s.max << "}";
}

} // namespace

int
main(int argc, char **argv)
{
    tss::CliArgs args(argc, argv);
    bool quick = args.scale(0.0, 1.0, 1.0) < 0.5;
    auto tenants = static_cast<unsigned>(
        args.getBounded("tenants", 1, 64).value_or(quick ? 3 : 4));
    auto jobs = static_cast<unsigned>(
        args.getBounded("jobs", 1, 1000000).value_or(quick ? 8 : 24));

    // ---- Phase 1: closed loop, deterministic, gated. -------------
    tss::serve::ServeConfig cfg;
    cfg.machine.numCores = 32;
    cfg.executeWorkers = 4;
    tss::serve::TraceService service(cfg);

    std::vector<tss::serve::TenantId> ids;
    for (unsigned t = 0; t < tenants; ++t)
        ids.push_back(service.openTenant("tenant" + std::to_string(t)));

    std::cerr << "# fig19: closed loop, " << tenants << " tenants x "
              << jobs << " jobs\n";
    std::vector<std::thread> drivers;
    for (unsigned t = 0; t < tenants; ++t) {
        drivers.emplace_back([&service, &ids, t, jobs] {
            for (tss::TaskTrace &program : tenantPanel(jobs)) {
                while (service.submit(ids[t], program).status !=
                       tss::serve::SubmitStatus::Accepted)
                    std::this_thread::yield();
            }
        });
    }
    for (auto &d : drivers)
        d.join();
    service.drain();
    tss::serve::ServiceReport closed = service.report();

    for (const auto &t : closed.tenants) {
        std::cerr << "#   " << t.name << ": " << t.completed
                  << " jobs, sim p50/p95/p99 "
                  << t.simMakespanCycles.p50 << "/"
                  << t.simMakespanCycles.p95 << "/"
                  << t.simMakespanCycles.p99 << " cycles\n";
        if (t.completed != jobs) {
            std::cerr << "BUG: tenant " << t.name << " completed "
                      << t.completed << " of " << jobs << " jobs\n";
            return 1;
        }
    }

    // ---- Phase 2: open loop, advisory + backpressure check. ------
    tss::serve::ServeConfig open_cfg;
    open_cfg.machine.numCores = 32;
    open_cfg.admitCapacity = 1;
    open_cfg.stageCapacity = 1;
    open_cfg.parseWorkers = 1;
    open_cfg.admitWorkers = 1;
    open_cfg.executeWorkers = 1;
    auto open_service =
        std::make_unique<tss::serve::TraceService>(open_cfg);
    auto open_tenant = open_service->openTenant("firehose");

    unsigned fired = quick ? 128 : 512;
    tss::TaskTrace big = chainProgram(quick ? 600 : 2000, 400);
    unsigned accepted = 0, busy = 0;
    for (unsigned i = 0; i < fired; ++i) {
        auto r = open_service->submit(open_tenant, big);
        if (r.status == tss::serve::SubmitStatus::Accepted)
            ++accepted;
        else
            ++busy;
    }
    open_service->drain();
    tss::serve::ServiceReport open = open_service->report();
    const tss::serve::TenantReport &fh = open.tenants.front();

    std::cerr << "# fig19: open loop fired " << fired << ": "
              << accepted << " accepted, " << busy
              << " bounced busy, wall p95 "
              << fh.wallLatencySeconds.p95 << " s\n";
    if (busy == 0) {
        std::cerr << "BUG: open-loop saturation produced no Busy "
                  << "rejections — the admission bound is broken\n";
        return 1;
    }
    if (fh.completed != accepted) {
        std::cerr << "BUG: drain lost jobs (" << fh.completed
                  << " completed of " << accepted << " accepted)\n";
        return 1;
    }

    // ---- JSON out. -----------------------------------------------
    std::cout << "{\n  \"machine\": {\"hardware_concurrency\": "
              << std::thread::hardware_concurrency() << "},\n";
    std::cout << "  \"workload\": {\"tenants\": " << tenants
              << ", \"jobs_per_tenant\": " << jobs
              << ", \"open_loop_fired\": " << fired << "},\n";
    std::cout << "  \"closed_loop\": {\n    \"tenants\": [\n";
    for (std::size_t i = 0; i < closed.tenants.size(); ++i) {
        const auto &t = closed.tenants[i];
        std::cout << (i ? ",\n" : "") << "      {\"name\": \""
                  << t.name << "\", \"completed\": " << t.completed
                  << ", \"simulated_tasks\": " << t.simulatedTasks
                  << ", \"carve_base\": " << t.carveBase << ",\n       ";
        jsonSummary(std::cout, "sim_makespan_cycles",
                    t.simMakespanCycles);
        std::cout << "}";
    }
    std::cout << "\n    ]\n  },\n";
    std::cout << "  \"open_loop\": {\"fired\": " << fired
              << ", \"accepted\": " << accepted
              << ", \"busy_rejections\": " << busy
              << ", \"wall_seconds\": " << open.wallSeconds
              << ", \"tasks_per_sec\": " << fh.tasksPerSec << ",\n    ";
    jsonSummary(std::cout, "wall_latency_seconds",
                fh.wallLatencySeconds);
    std::cout << "}\n}\n";
    return 0;
}
