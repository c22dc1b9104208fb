/**
 * @file
 * tss-serve: the always-on multi-tenant trace service daemon.
 *
 * Listens on an AF_UNIX socket, admits streaming task-program
 * submissions from concurrent tenants, rebases every tenant's
 * operand addresses into a disjoint carve of the synthetic address
 * space, simulates each program on the configured task superscalar
 * machine, and reports per-tenant latency percentiles and throughput.
 *
 * Runs until a client sends Shutdown; the service then drains
 * gracefully (every accepted job completes) and the final report
 * JSON goes to stdout.
 *
 * Usage:
 *   tss-serve --socket=/tmp/tss.sock
 *       [machine knobs: --pipes=N --trs=N --ort=N --cores=N
 *        --topology=... --credits=N ...]
 *       [service knobs: --gen-threads=N --admit-queue=N
 *        --stage-queue=N --parse-workers=N --admit-workers=N
 *        --execute-workers=N --carve-mb=N]
 *       [observability: --job-traces --max-events-per-job=N, plus
 *        the shared --trace/--trace-filter/--trace-tail knobs]
 *
 * With --job-traces every job simulates under a full flight recorder;
 * a tenant fetches its latest job's Chrome trace (with wall-clock
 * serve-stage slices spliced in) via the Trace wire message. Wedged
 * tenant programs no longer kill the daemon: they retire as wedged
 * jobs whose liveness diagnosis (slice occupancy, culprit operand,
 * flight-recorder tail) lands in the Stats report.
 *
 * Worker and queue counts must lie in [1, 256] and [1, 2^32 - 1],
 * and --carve-mb must be at least 1 and fit 64 bits in bytes; any
 * other value exits non-zero before the service starts.
 */

#include <csignal>
#include <iostream>

#include "driver/cli.hh"
#include "driver/run_options.hh"
#include "serve/server.hh"
#include "serve/service.hh"

int
main(int argc, char **argv)
{
    // A client that disconnects mid-reply must fail that one write
    // (writeFrame returns false), not kill the daemon with SIGPIPE.
    std::signal(SIGPIPE, SIG_IGN);

    tss::CliArgs args(argc, argv);
    tss::RunOptions opts = tss::RunOptions::parse(args);

    tss::serve::ServeConfig cfg;
    cfg.machine.numCores = 128;
    opts.apply(cfg.machine);
    cfg.genThreads = opts.genThreads(1);
    constexpr std::uint64_t max_workers = 256;
    auto queue = [&args](const char *key, std::size_t fallback) {
        return static_cast<std::size_t>(
            args.getBounded(key, 1, UINT32_MAX).value_or(fallback));
    };
    auto workers = [&args](const char *key, unsigned fallback) {
        return static_cast<unsigned>(
            args.getBounded(key, 1, max_workers).value_or(fallback));
    };
    cfg.admitCapacity = queue("admit-queue", 8);
    cfg.stageCapacity = queue("stage-queue", 8);
    cfg.parseWorkers = workers("parse-workers", 1);
    cfg.admitWorkers = workers("admit-workers", 1);
    cfg.executeWorkers = workers("execute-workers", 2);
    std::uint64_t carve_mb =
        args.getBounded("carve-mb", 1, UINT64_MAX >> 20).value_or(256);
    cfg.carveBytes = carve_mb << 20;
    cfg.recordJobTraces = args.has("job-traces");
    long max_events = args.getLong("max-events-per-job", 0);
    if (max_events > 0)
        cfg.maxEventsPerJob = static_cast<std::uint64_t>(max_events);

    std::string socket_path =
        args.get("socket", "/tmp/tss-serve.sock");

    tss::serve::TraceService service(cfg);
    tss::serve::SocketServer server(service, socket_path);
    if (!server.start())
        return 1;

    std::cerr << "tss-serve: listening on " << socket_path << "\n";
    server.waitShutdown();
    server.stop();

    std::cout << tss::serve::toJson(service.report());
    std::cerr << "tss-serve: drained, exiting\n";
    return 0;
}
