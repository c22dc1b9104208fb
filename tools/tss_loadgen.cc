/**
 * @file
 * tss-loadgen: drives a running tss-serve daemon over its socket —
 * the CI smoke client. Opens N tenants (one connection each),
 * submits a fixed panel of programs per tenant with retry on Busy,
 * fetches the stats report, checks it is well-formed, and (with
 * --shutdown) asks the daemon to drain and exit.
 *
 * Exits non-zero when any protocol step fails or the report is
 * malformed, so a CI step can simply run it and trust the exit code.
 *
 * Usage: tss-loadgen --socket=PATH [--tenants=N] [--jobs=N]
 *        [--shutdown]
 * (tenants 1-64, one connection and driver thread each; jobs
 * 1-1000000)
 */

#include <csignal>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "driver/cli.hh"
#include "serve/client.hh"
#include "workload/address_space.hh"
#include "workload/builder.hh"

namespace
{

tss::TaskTrace
chainProgram(unsigned tasks)
{
    tss::TaskTrace trace;
    trace.name = "chain";
    auto kernel = trace.addKernel("link");
    tss::TaskBuilder b(trace);
    tss::AddressSpace mem(0x5000'0000);
    std::uint64_t prev = mem.alloc(256);
    for (unsigned i = 0; i < tasks; ++i) {
        std::uint64_t next = mem.alloc(256);
        b.begin(kernel, 400).in(prev, 256).out(next, 256);
        b.commit();
        prev = next;
    }
    return trace;
}

} // namespace

int
main(int argc, char **argv)
{
    // A daemon that dies mid-conversation must fail the request,
    // not kill the load generator with SIGPIPE.
    std::signal(SIGPIPE, SIG_IGN);

    tss::CliArgs args(argc, argv);
    std::string socket_path =
        args.get("socket", "/tmp/tss-serve.sock");
    auto tenants = static_cast<unsigned>(
        args.getBounded("tenants", 1, 64).value_or(2));
    auto jobs = static_cast<unsigned>(
        args.getBounded("jobs", 1, 1000000).value_or(5));

    std::vector<std::unique_ptr<tss::serve::ServeClient>> clients;
    std::vector<std::uint64_t> carve_ends;
    for (unsigned t = 0; t < tenants; ++t) {
        auto client = std::make_unique<tss::serve::ServeClient>();
        if (!client->connect(socket_path)) {
            std::cerr << "tss-loadgen: cannot connect to "
                      << socket_path << "\n";
            return 1;
        }
        tss::serve::TenantId id = 0;
        std::uint64_t base = 0, end = 0;
        if (!client->hello("loadgen" + std::to_string(t), id, base,
                           end) ||
            end <= base) {
            std::cerr << "tss-loadgen: Hello failed for tenant " << t
                      << "\n";
            return 1;
        }
        // Carves must be disjoint: each new carve starts at or past
        // every earlier carve's end.
        for (std::uint64_t prior_end : carve_ends) {
            if (base < prior_end) {
                std::cerr << "tss-loadgen: overlapping carves\n";
                return 1;
            }
        }
        carve_ends.push_back(end);
        clients.push_back(std::move(client));
    }

    std::vector<std::thread> drivers;
    std::vector<unsigned> submitted(tenants, 0);
    for (unsigned t = 0; t < tenants; ++t) {
        drivers.emplace_back([&, t] {
            for (unsigned j = 0; j < jobs; ++j) {
                tss::TaskTrace program = chainProgram(50 + 10 * j);
                tss::serve::JobId job = 0;
                tss::serve::SubmitStatus s;
                do {
                    s = clients[t]->submit(program, job);
                    if (s == tss::serve::SubmitStatus::Busy)
                        std::this_thread::yield();
                } while (s == tss::serve::SubmitStatus::Busy);
                if (s == tss::serve::SubmitStatus::Accepted)
                    ++submitted[t];
            }
        });
    }
    for (auto &d : drivers)
        d.join();

    unsigned total = 0;
    for (unsigned t = 0; t < tenants; ++t) {
        if (submitted[t] != jobs) {
            std::cerr << "tss-loadgen: tenant " << t << " submitted "
                      << submitted[t] << " of " << jobs << "\n";
            return 1;
        }
        total += submitted[t];
    }

    std::string json;
    if (!clients[0]->stats(json)) {
        std::cerr << "tss-loadgen: Stats failed\n";
        return 1;
    }
    for (const char *needle :
         {"\"tenants\"", "\"sim_makespan_cycles\"",
          "\"wall_latency_seconds\"", "\"p50\"", "\"p95\"",
          "\"p99\"", "\"tasks_per_sec\"", "\"busy_rejections\""}) {
        if (json.find(needle) == std::string::npos) {
            std::cerr << "tss-loadgen: report missing " << needle
                      << ":\n" << json;
            return 1;
        }
    }
    std::cout << json;

    if (args.has("shutdown")) {
        if (!clients[0]->shutdown()) {
            std::cerr << "tss-loadgen: Shutdown handshake failed\n";
            return 1;
        }
        std::cerr << "tss-loadgen: daemon drained\n";
    }
    std::cerr << "tss-loadgen: " << total << " jobs across "
              << tenants << " tenants ok\n";
    return 0;
}
