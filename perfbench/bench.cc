#include "bench.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>

namespace perfbench
{

double
secondsSince(Clock::time_point since)
{
    return std::chrono::duration<double>(Clock::now() - since).count();
}

void
SimTotals::add(const tss::RunResult &r)
{
    ++sims;
    simCycles += r.makespan;
    decodeSum += r.decodeRateCycles;
    events += r.eventsExecuted;
    messages += r.messagesOnNoc;
    windows += r.simWindows;
    multiShardWindows += r.simMultiShardWindows;
    fusedWindows += r.simFusedWindows;
    linkTraversals += r.linkTraversals;
    linkWaitCycles += r.linkWaitCycles;
    decodeDeferrals += r.decodeDeferrals;
    gatewayStallCycles += r.gatewayStallCycles;
    versionsCreated += r.versionsCreated;
    versionsRenamed += r.versionsRenamed;
}

void
Outcome::fail(const std::string &why)
{
    ++failed;
    std::cerr << "FAILED: " << why << "\n";
}

void
Outcome::check(bool ok, const std::string &why)
{
    if (!ok)
        fail(why);
}

void
Outcome::add(std::string name, double value, std::string unit)
{
    metrics.push_back({std::move(name), value, std::move(unit)});
}

SpanLog::Scope::Scope(SpanLog &log, const char *name)
    : log(log), start(Clock::now())
{
    if (!log.enabled)
        return;
    id = static_cast<int>(log.spans.size());
    log.spans.push_back({name, log.ns(start), -1,
                         log.open.empty() ? -1 : log.open.back()});
    log.open.push_back(id);
}

double
SpanLog::Scope::close()
{
    if (seconds >= 0)
        return seconds;
    Clock::time_point end = Clock::now();
    seconds = std::chrono::duration<double>(end - start).count();
    if (id >= 0) {
        log.spans[id].endNs = log.ns(end);
        // Scopes nest, so the closing span is the innermost open one.
        if (!log.open.empty() && log.open.back() == id)
            log.open.pop_back();
    }
    return seconds;
}

std::int64_t
SpanLog::ns(Clock::time_point t) const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
        .count();
}

bool
SpanLog::write(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;

    // Self time: a span's length minus what its direct children cover
    // (children of one parent never overlap: one thread, nested scopes).
    std::vector<std::int64_t> child(spans.size(), 0);
    for (const Span &s : spans)
        if (s.parent >= 0 && s.endNs >= 0)
            child[s.parent] += s.endNs - s.startNs;
    struct Summary
    {
        std::size_t count = 0;
        double totalMs = 0, selfMs = 0;
        std::vector<double> ms;
    };
    std::map<std::string, Summary> by_name;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        if (s.endNs < 0)
            continue;
        Summary &sum = by_name[s.name];
        double ms = static_cast<double>(s.endNs - s.startNs) / 1e6;
        ++sum.count;
        sum.totalMs += ms;
        sum.selfMs += ms - static_cast<double>(child[i]) / 1e6;
        sum.ms.push_back(ms);
    }

    os << "{\n  \"summary\": {";
    bool first = true;
    for (auto &[name, sum] : by_name) {
        os << (first ? "\n" : ",\n") << "    \"" << name
           << "\": {\"count\": " << sum.count
           << ", \"total_ms\": " << sum.totalMs
           << ", \"self_ms\": " << sum.selfMs
           << ", \"p50_ms\": " << median(sum.ms) << "}";
        first = false;
    }
    os << "\n  },\n  \"spans\": [";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        os << (i ? ",\n" : "\n") << "    {\"id\": " << i
           << ", \"name\": \"" << s.name << "\", \"start_ns\": "
           << s.startNs << ", \"end_ns\": " << s.endNs
           << ", \"parent\": " << s.parent << "}";
    }
    os << "\n  ]\n}\n";
    return static_cast<bool>(os);
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

SimRun
simulate(const tss::PipelineConfig &cfg, const tss::TaskTrace &trace,
         const std::vector<unsigned> &thread_of, SpanLog &log)
{
    SimRun out;
    SpanLog::Scope sim = log.span("bench.sim"); // groups the four below
    std::unique_ptr<tss::System> sys;
    {
        SpanLog::Scope s = log.span("core.build");
        tss::SystemBuilder builder(cfg, trace);
        if (!thread_of.empty())
            builder.threads(thread_of);
        sys = builder.build();
        out.t.build = s.close();
    }
    {
        SpanLog::Scope s = log.span("sim.run");
        out.completed = sys->runWatchdog(kMaxEvents).completed;
        out.t.run = s.close();
    }
    {
        SpanLog::Scope s = log.span("obs.collect");
        if (out.completed)
            out.result = sys->collectResult();
        // The metrics JSON every binary emits; discarded here.
        std::string metrics = sys->metricsRegistry().snapshot().toJson();
        out.t.collect = s.close();
    }
    {
        SpanLog::Scope s = log.span("core.teardown");
        sys.reset();
        out.t.teardown = s.close();
    }
    return out;
}

bool
checkRun(const SimRun &run, const tss::TaskTrace &trace,
         const tss::DepGraph &graph, Outcome &out,
         const std::string &what)
{
    ++out.attempted;
    bool ok = run.completed && run.result.numTasks == trace.size() &&
        run.result.startOrder.size() == trace.size() &&
        graph.isTopologicalOrder(run.result.startOrder);
    out.check(ok, what + ": incomplete run or start order violates "
                         "the renamed dependency graph");
    return ok;
}

bool
identical(const tss::RunResult &a, const tss::RunResult &b)
{
    return a.makespan == b.makespan &&
        a.eventsExecuted == b.eventsExecuted &&
        a.messagesOnNoc == b.messagesOnNoc &&
        a.versionsCreated == b.versionsCreated &&
        a.versionsRenamed == b.versionsRenamed &&
        a.dmaWritebacks == b.dmaWritebacks &&
        a.gatewayStallCycles == b.gatewayStallCycles &&
        a.decodeRateCycles == b.decodeRateCycles &&
        a.simWindows == b.simWindows &&
        a.startOrder == b.startOrder && a.coreOf == b.coreOf;
}

double
timeSetup(const std::function<void()> &setup,
          const std::function<void()> &between)
{
    std::vector<double> times;
    double spent = 0;
    while (times.size() < 5 || (spent < 0.5 && times.size() < 101)) {
        if (between && !times.empty())
            between();
        Clock::time_point t0 = Clock::now();
        setup();
        times.push_back(secondsSince(t0));
        spent += times.back();
    }
    return median(times);
}

double
peakRssMiB()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

void
measureLoop(const Options &opt, double seconds, SpanLog &log,
            const std::function<void(bool traced)> &pass)
{
    Clock::time_point t0 = Clock::now();
    for (unsigned n = 0;; ++n) {
        bool traced = opt.traced && n % 2 == 1;
        log.enabled = traced;
        pass(traced);
        if (secondsSince(t0) >= seconds && (!opt.traced || n >= 1))
            break;
    }
    log.enabled = opt.traced;
}

void
addEndToEnd(Outcome &out, const std::vector<double> &pass_s,
            double jobs_per_pass, double setup_s)
{
    const SimTotals &t = out.totals;
    double wall_s = median(pass_s);
    out.add("wall_s", wall_s, "s");
    out.add("events_per_s", static_cast<double>(t.events) / wall_s, "1/s");
    out.add("sim_cycles", static_cast<double>(t.simCycles), "cycles");
    out.add("decode_cycles_per_task", t.decodePerTask(), "cycles");
    out.add("serve_capacity_jobs_per_s", jobs_per_pass / wall_s, "1/s");
    out.add("setup_s", setup_s, "s");
}

void
addOverhead(Outcome &out, const std::vector<double> &untraced,
            const std::vector<double> &traced)
{
    double base = median(untraced);
    out.add("bench.trace_overhead_pct",
            base > 0 ? (median(traced) / base - 1) * 100 : 0, "%");
}

void
addCounterMetrics(Outcome &out, const SimTotals &t)
{
    auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    out.add("core.builds", d(t.sims), "count");
    out.add("sim.events", d(t.events), "count");
    out.add("sim.windows", d(t.windows), "count");
    out.add("sim.multi_shard_windows", d(t.multiShardWindows), "count");
    out.add("sim.fused_windows", d(t.fusedWindows), "count");
    out.add("sim.events_per_window",
            t.windows ? d(t.events) / d(t.windows) : 0, "ratio");
    out.add("noc.messages", d(t.messages), "count");
    out.add("noc.link_traversals", d(t.linkTraversals), "count");
    out.add("noc.links_per_message",
            t.messages ? d(t.linkTraversals) / d(t.messages) : 0,
            "ratio");
    out.add("noc.link_wait_cycles", d(t.linkWaitCycles), "cycles");
    out.add("core.decode_deferrals", d(t.decodeDeferrals), "count");
    out.add("core.gateway_stall_cycles", d(t.gatewayStallCycles),
            "cycles");
    out.add("core.versions_created", d(t.versionsCreated), "count");
    out.add("core.versions_renamed", d(t.versionsRenamed), "count");
}

void
addStageMetrics(Outcome &out, const std::vector<SimTiming> &sims,
                const std::vector<double> &pass_run_seconds,
                std::uint64_t events_per_pass)
{
    std::vector<double> build, teardown, collect;
    for (const SimTiming &t : sims) {
        build.push_back(t.build * 1e3);
        teardown.push_back(t.teardown * 1e3);
        collect.push_back(t.collect * 1e3);
    }
    double run_s = median(pass_run_seconds);
    out.add("core.build_ms_p50", median(build), "ms");
    out.add("core.teardown_ms_p50", median(teardown), "ms");
    out.add("obs.collect_ms", median(collect), "ms");
    out.add("sim.run_s", run_s, "s");
    out.add("sim.ns_per_event",
            events_per_pass
                ? run_s * 1e9 / static_cast<double>(events_per_pass)
                : 0,
            "ns");
}

} // namespace perfbench
