/**
 * @file
 * perfbench: the repository benchmark, one workload per run.
 *
 *   tss_perfbench --workload decode_sweep|wide_mt|serve_mix --seed N
 *                 --seconds S --trace 0|1 --out-dir DIR
 *
 * An untraced run (--trace 0) prints every end-to-end metric; a traced
 * run (--trace 1) prints every per-layer metric plus the tracing
 * overhead, and writes its spans to DIR. Either way every simulated
 * output is checked, the machine fingerprint and the seed are printed
 * and recorded with the result in DIR, and the deterministic totals
 * are cross-checked against any earlier run of the same workload and
 * seed (DIR/ledger-*). The last stdout line is the JSON result:
 * {"correct", "attempted", "failed", "metrics"}.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hh"

namespace
{

using namespace perfbench;

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/// Reported by every untraced run (BENCHMARK.json end_to_end).
const MetricSpec kEndToEnd[] = {
    {"wall_s", "s"},
    {"events_per_s", "1/s"},
    {"sim_cycles", "cycles"},
    {"decode_cycles_per_task", "cycles"},
    {"serve_capacity_jobs_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

/// Reported by every traced run (BENCHMARK.json per_layer). A layer a
/// workload bypasses reads 0.
const MetricSpec kPerLayer[] = {
    {"core.build_ms_p50", "ms"},
    {"core.teardown_ms_p50", "ms"},
    {"core.builds", "count"},
    {"sim.run_s", "s"},
    {"sim.ns_per_event", "ns"},
    {"sim.events", "count"},
    {"sim.windows", "count"},
    {"sim.multi_shard_windows", "count"},
    {"sim.fused_windows", "count"},
    {"sim.events_per_window", "ratio"},
    {"sim.speedup_4t", "ratio"},
    {"noc.messages", "count"},
    {"noc.link_traversals", "count"},
    {"noc.links_per_message", "ratio"},
    {"noc.link_wait_cycles", "cycles"},
    {"core.decode_deferrals", "count"},
    {"core.gateway_stall_cycles", "cycles"},
    {"core.versions_created", "count"},
    {"core.versions_renamed", "count"},
    {"obs.collect_ms", "ms"},
    {"workload.gen_ms", "ms"},
    {"trace.relocate_ms", "ms"},
    {"serve.format_ms", "ms"},
    {"serve.start_ms", "ms"},
    {"serve.parse_ms", "ms"},
    {"serve.admit_ms", "ms"},
    {"serve.execute_ms", "ms"},
    {"serve.report_ms", "ms"},
    {"serve.submit_us_p99", "us"},
    {"serve.busy_retries", "count"},
    {"serve.gen_late_ms_p99", "ms"},
    {"serve_latency_p50_ms", "ms"},
    {"serve_latency_p99_ms", "ms"},
    {"bench.trace_overhead_pct", "%"},
};

int
usage(const char *why)
{
    std::cerr << "tss_perfbench: " << why << "\n"
              << "usage: tss_perfbench --workload "
                 "decode_sweep|wide_mt|serve_mix --seed N --seconds S "
                 "--trace 0|1 --out-dir DIR\n";
    return 2;
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i], value;
        if (key.rfind("--", 0) != 0)
            return false;
        std::size_t eq = key.find('=');
        if (eq != std::string::npos) {
            value = key.substr(eq + 1);
            key = key.substr(0, eq);
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            return false;
        }
        try {
            if (key == "--workload")
                opt.workload = value;
            else if (key == "--seed")
                opt.seed = std::stoull(value);
            else if (key == "--seconds")
                opt.seconds = std::stod(value);
            else if (key == "--trace")
                opt.traced = std::stoi(value) != 0;
            else if (key == "--out-dir")
                opt.outDir = value;
            else
                return false;
        } catch (const std::exception &) {
            return false;
        }
    }
    return !opt.workload.empty() && !opt.outDir.empty() &&
        opt.seconds > 0 && std::isfinite(opt.seconds);
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("model name", 0) == 0) {
            std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

/** The machine fingerprint and seed, as JSON members. */
std::string
fingerprint(const Options &opt)
{
    std::ostringstream os;
    os << "\"workload\": " << jsonString(opt.workload)
       << ", \"seed\": " << opt.seed
       << ", \"trace\": " << (opt.traced ? 1 : 0)
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"cpu\": " << jsonString(cpuModel())
       << ", \"compiler\": " << jsonString(TSS_PERFBENCH_COMPILER)
       << ", \"build_type\": " << jsonString(TSS_PERFBENCH_BUILD_TYPE);
    return os.str();
}

/**
 * Cross-run determinism: the first run of (workload, seed) records
 * its deterministic totals; every later run must match them exactly.
 */
void
checkLedger(const Options &opt, Outcome &out)
{
    const SimTotals &t = out.totals;
    char line[256];
    std::snprintf(line, sizeof line,
                  "sim_cycles=%llu decode_cycles_per_task=%.17g "
                  "sim.events=%llu noc.messages=%llu sim.windows=%llu",
                  static_cast<unsigned long long>(t.simCycles),
                  t.decodePerTask(),
                  static_cast<unsigned long long>(t.events),
                  static_cast<unsigned long long>(t.messages),
                  static_cast<unsigned long long>(t.windows));
    std::string path = opt.outDir + "/ledger-" + opt.workload + "-seed" +
        std::to_string(opt.seed) + ".txt";
    std::ifstream in(path);
    std::string recorded;
    if (in && std::getline(in, recorded)) {
        out.check(recorded == line,
                  "determinism: this run gives '" + std::string(line) +
                      "', an earlier run of the same seed gave '" +
                      recorded + "'");
        return;
    }
    std::ofstream(path) << line << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt))
        return usage("bad or missing arguments");

    Outcome (*run)(const Options &, SpanLog &) = nullptr;
    if (opt.workload == "decode_sweep")
        run = runDecodeSweep;
    else if (opt.workload == "wide_mt")
        run = runWideMt;
    else if (opt.workload == "serve_mix")
        run = runServeMix;
    else
        return usage(("unknown workload '" + opt.workload + "'").c_str());

    std::string machine = fingerprint(opt);
    std::cout << "# " << machine << "\n" << std::flush;

    SpanLog log(Clock::now());
    log.enabled = opt.traced;
    Outcome out = run(opt, log);
    checkLedger(opt, out);

    if (!opt.traced)
        out.add("peak_rss_mb", peakRssMiB(), "MiB");

    // Every metric of the run's set, in BENCHMARK.json order.
    std::vector<Metric> metrics;
    auto take = [&](const MetricSpec &spec, bool required) {
        for (const Metric &m : out.metrics) {
            if (m.name != spec.name)
                continue;
            if (m.unit != spec.unit || !std::isfinite(m.value))
                out.fail("metric " + m.name + " has unit '" + m.unit +
                         "' or is not finite");
            metrics.push_back({m.name, std::isfinite(m.value) ? m.value : 0,
                               spec.unit});
            return;
        }
        if (required)
            out.fail(std::string("metric ") + spec.name + " missing");
        metrics.push_back({spec.name, 0, spec.unit});
    };
    if (opt.traced)
        for (const MetricSpec &spec : kPerLayer)
            take(spec, false);
    else
        for (const MetricSpec &spec : kEndToEnd)
            take(spec, true);

    for (const std::string &note : out.notes)
        std::cout << "# " << note << "\n";
    for (const Metric &m : metrics)
        std::cout << m.name << " = " << std::setprecision(10) << m.value
                  << " " << m.unit << "\n";
    // failed/attempted, carried by the JSON's counts rather than as a
    // metric: it is 0 on a correct run.
    double failed_frac = static_cast<double>(out.failed) /
        static_cast<double>(std::max<std::uint64_t>(1, out.attempted));
    std::cout << "failed_frac = " << failed_frac << " ratio ("
              << out.failed << "/" << out.attempted << ")\n";

    std::ostringstream json;
    json << std::setprecision(17) << "{\"correct\": "
         << (out.correct() ? "true" : "false")
         << ", \"attempted\": " << out.attempted
         << ", \"failed\": " << out.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        json << (i ? ", " : "") << jsonString(metrics[i].name)
             << ": {\"value\": " << metrics[i].value
             << ", \"unit\": " << jsonString(metrics[i].unit) << "}";
    json << "}}";

    std::string tag = opt.outDir + "/" + opt.workload + "-seed" +
        std::to_string(opt.seed) + "-trace" + (opt.traced ? "1" : "0");
    {
        std::ofstream rec(tag + ".json");
        rec << "{" << machine << ", \"failed_frac\": " << failed_frac
            << ",\n \"notes\": [";
        for (std::size_t i = 0; i < out.notes.size(); ++i)
            rec << (i ? ", " : "") << jsonString(out.notes[i]);
        rec << "],\n \"result\": " << json.str() << "}\n";
    }
    if (opt.traced) {
        if (log.write(tag + "-spans.json"))
            std::cout << "# " << log.size() << " spans written to " << tag
                      << "-spans.json\n";
        else
            std::cerr << "tss_perfbench: cannot write spans to " << tag
                      << "-spans.json\n";
    }

    std::cout << json.str() << "\n";
    return out.correct() ? 0 : 1;
}
