/**
 * @file
 * tss-serve tests: disjoint per-tenant address-space carving,
 * backpressure under saturating load, graceful drain completing every
 * admitted job (the ctest TIMEOUT is the watchdog — a drain that
 * hangs fails the suite), the framed socket protocol end-to-end,
 * wedged-job survival with a liveness diagnosis in the report,
 * parse-stage rejection of jobs that once killed the daemon, the
 * job-trace round trip under --job-traces, and the Session lifecycle
 * contract.
 */

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "runtime/parallel_exec.hh"
#include "runtime/session.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "mem/block_layout.hh"
#include "workload/address_space.hh"
#include "workload/builder.hh"

namespace tss::serve
{
namespace
{

/** A dependency chain: task i reads object i-1 and writes object i. */
TaskTrace
chainProgram(unsigned tasks, std::uint64_t base, Cycle runtime = 400)
{
    TaskTrace trace;
    trace.name = "chain";
    auto kernel = trace.addKernel("link");
    TaskBuilder b(trace);
    AddressSpace mem(base);
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

ServeConfig
tinyServeConfig()
{
    ServeConfig cfg;
    cfg.machine.numCores = 8;
    cfg.machine.trsTotalBytes = 256 * 1024;
    cfg.machine.ortTotalBytes = 128 * 1024;
    cfg.machine.ovtTotalBytes = 128 * 1024;
    cfg.carveBytes = 1 << 20;
    return cfg;
}

const TenantReport &
tenantOf(const ServiceReport &report, TenantId id)
{
    for (const auto &t : report.tenants)
        if (t.id == id)
            return t;
    ADD_FAILURE() << "tenant " << id << " missing from report";
    return report.tenants.front();
}

TEST(Serve, TenantCarvesAreDisjoint)
{
    TraceService service(tinyServeConfig());
    TenantId a = service.openTenant("a");
    TenantId b = service.openTenant("b");
    TenantId c = service.openTenant("c");

    for (TenantId t : {a, b, c})
        EXPECT_LT(service.carveBaseOf(t), service.carveEndOf(t));
    EXPECT_LE(service.carveEndOf(a), service.carveBaseOf(b));
    EXPECT_LE(service.carveEndOf(b), service.carveBaseOf(c));

    // A session sealed at a tenant's carve base keeps every
    // relocated region inside the carve — the admit-stage invariant.
    Session session = Session::forTrace("carved");
    session.submitTrace(chainProgram(64, 0x7000'0000));
    RelocationOptions opts;
    opts.targetBase = service.carveBaseOf(b);
    session.seal(opts);
    for (const RelocatedRegion &r : session.relocationMap()->regions()) {
        EXPECT_GE(r.targetBase, service.carveBaseOf(b));
        EXPECT_LE(r.targetBase + r.bytes, service.carveEndOf(b));
    }
}

TEST(Serve, CompletesConcurrentTenantJobs)
{
    TraceService service(tinyServeConfig());
    TenantId a = service.openTenant("alpha");
    TenantId b = service.openTenant("beta");

    // Both tenants submit the same program; distinct carves mean the
    // simulated directories never alias even while jobs execute
    // concurrently.
    unsigned accepted_a = 0, accepted_b = 0;
    for (unsigned i = 0; i < 6; ++i) {
        while (service.submit(a, chainProgram(40, 0x5000'0000))
                   .status != SubmitStatus::Accepted)
            ;
        ++accepted_a;
        while (service.submit(b, chainProgram(40, 0x5000'0000))
                   .status != SubmitStatus::Accepted)
            ;
        ++accepted_b;
    }
    service.waitIdle();

    ServiceReport report = service.report();
    EXPECT_EQ(tenantOf(report, a).completed, accepted_a);
    EXPECT_EQ(tenantOf(report, b).completed, accepted_b);
    EXPECT_EQ(tenantOf(report, a).simulatedTasks, 40u * accepted_a);
    EXPECT_EQ(tenantOf(report, a).simMakespanCycles.count, accepted_a);
    EXPECT_GT(tenantOf(report, a).simMakespanCycles.p50, 0);

    // Same program, same carve → the same deterministic makespan on
    // every submission, so p50 == p99 == max.
    const PercentileSummary &s = tenantOf(report, a).simMakespanCycles;
    EXPECT_EQ(s.p50, s.p99);
    EXPECT_EQ(s.p50, s.max);
}

TEST(Serve, BackpressureEngagesUnderOpenLoopLoad)
{
    ServeConfig cfg = tinyServeConfig();
    cfg.admitCapacity = 1;
    cfg.stageCapacity = 1;
    cfg.parseWorkers = 1;
    cfg.admitWorkers = 1;
    cfg.executeWorkers = 1;
    TraceService service(cfg);
    TenantId tenant = service.openTenant("firehose");

    // Open loop: fire submissions with no retry, far faster than one
    // execute worker can simulate 800-task programs. The bounded
    // stages must bounce some of them instead of buffering all.
    TaskTrace program = chainProgram(800, 0x5000'0000);
    unsigned accepted = 0, busy = 0;
    for (unsigned i = 0; i < 64; ++i) {
        SubmitResult r = service.submit(tenant, program);
        if (r.status == SubmitStatus::Accepted)
            ++accepted;
        else if (r.status == SubmitStatus::Busy)
            ++busy;
    }
    EXPECT_GT(busy, 0u);
    EXPECT_GT(accepted, 0u);

    service.waitIdle();
    ServiceReport report = service.report();
    EXPECT_EQ(tenantOf(report, tenant).completed, accepted);
    EXPECT_EQ(tenantOf(report, tenant).busyRejections, busy);
}

TEST(Serve, GracefulDrainCompletesEveryAdmittedJob)
{
    ServeConfig cfg = tinyServeConfig();
    cfg.admitCapacity = 16;
    TraceService service(cfg);
    TenantId tenant = service.openTenant("drainer");

    unsigned accepted = 0;
    for (unsigned i = 0; i < 12; ++i) {
        while (service.submit(tenant, chainProgram(100, 0x5000'0000))
                   .status != SubmitStatus::Accepted)
            ;
        ++accepted;
    }
    service.drain();

    EXPECT_EQ(service.submit(tenant, chainProgram(4, 0x5000'0000))
                  .status,
              SubmitStatus::Closed);

    ServiceReport report = service.report();
    EXPECT_TRUE(report.drained);
    EXPECT_EQ(tenantOf(report, tenant).admitted, accepted);
    EXPECT_EQ(tenantOf(report, tenant).completed, accepted);
    EXPECT_EQ(report.parseDepth + report.admitDepth +
                  report.executeDepth + report.reportDepth,
              0u);
}

TEST(Serve, MalformedSubmissionRejectedNotFatal)
{
    TraceService service(tinyServeConfig());
    TenantId tenant = service.openTenant("garbled");
    ASSERT_EQ(service.submitText(tenant, "trace x\nnot a line\n")
                  .status,
              SubmitStatus::Accepted);
    service.waitIdle();
    ServiceReport report = service.report();
    EXPECT_EQ(tenantOf(report, tenant).rejectedParse, 1u);
    EXPECT_EQ(tenantOf(report, tenant).completed, 0u);
}

TEST(Serve, OverWideSubmissionsRejectedNotFatal)
{
    TraceService service(tinyServeConfig());
    TenantId tenant = service.openTenant("wide");

    // A huge operand count on the wire: rejected before any reserve().
    ASSERT_EQ(service.submitText(tenant, "trace x\nkernel 0 k\n"
                                         "task 0 100 99999999999999\n")
                  .status,
              SubmitStatus::Accepted);

    // A well-formed task one operand wider than the TRS layout, on
    // both the wire path and the in-process path.
    TaskTrace wide;
    wide.name = "wide";
    auto kernel = wide.addKernel("k");
    TaskBuilder b(wide);
    AddressSpace mem(0x5000'0000);
    b.begin(kernel, 100);
    for (unsigned i = 0; i <= layout::maxOperands; ++i)
        b.in(mem.alloc(256), 256);
    b.commit();
    ASSERT_EQ(service.submitText(tenant, formatTraceText(wide)).status,
              SubmitStatus::Accepted);
    ASSERT_EQ(service.submit(tenant, wide).status,
              SubmitStatus::Accepted);

    // The service keeps serving.
    ASSERT_EQ(service.submit(tenant, chainProgram(10, 0x5000'0000))
                  .status,
              SubmitStatus::Accepted);
    service.waitIdle();
    ServiceReport report = service.report();
    EXPECT_EQ(tenantOf(report, tenant).completed, 1u);
    EXPECT_EQ(tenantOf(report, tenant).rejectedParse, 3u);
}

/** Submit @p bad and expect ParseError; the tenant then completes
 *  a normal job. */
void
expectRejectedThenServes(const std::string &bad_text,
                         const TaskTrace &bad_trace)
{
    TraceService service(tinyServeConfig());
    TenantId tenant = service.openTenant("hostile");
    ASSERT_EQ(service.submitText(tenant, bad_text).status,
              SubmitStatus::Accepted);
    ASSERT_EQ(service.submit(tenant, bad_trace).status,
              SubmitStatus::Accepted);
    service.waitIdle();
    EXPECT_EQ(tenantOf(service.report(), tenant).rejectedParse, 2u);

    ASSERT_EQ(service.submit(tenant, chainProgram(10, 0x5000'0000))
                  .status,
              SubmitStatus::Accepted);
    service.waitIdle();
    ServiceReport report = service.report();
    EXPECT_EQ(tenantOf(report, tenant).completed, 1u);
    EXPECT_EQ(tenantOf(report, tenant).rejectedParse, 2u);
}

TEST(Serve, RuntimePastBoundRejectedNotFatal)
{
    // 2^64-1 cycles, and "-5", which the stream wraps to 2^64-5: both
    // once overflowed curCycle() + runtime and killed the daemon.
    TaskTrace huge = chainProgram(2, 0x5000'0000);
    huge.tasks[1].runtime = ~Cycle(0);
    expectRejectedThenServes("trace x\nkernel 0 k\ntask 0 -5 0\n", huge);

    TaskTrace edge = chainProgram(2, 0x5000'0000);
    edge.tasks[0].runtime = maxTaskRuntime + 1;
    EXPECT_FALSE(validateTrace(edge));
    edge.tasks[0].runtime = maxTaskRuntime;
    EXPECT_TRUE(validateTrace(edge));
}

TEST(Serve, WrappingOperandRejectedNotFatal)
{
    // addr + bytes past 2^64 once made the relocator fatal().
    TaskTrace wrap = chainProgram(2, 0x5000'0000);
    wrap.tasks[0].operands[0].addr = 0xffff'ffff'ffff'ffc0;
    wrap.tasks[0].operands[0].bytes = 128;
    expectRejectedThenServes(formatTraceText(wrap), wrap);

    wrap.tasks[0].operands[0].bytes = 0x40; // ends exactly at 2^64
    EXPECT_FALSE(validateTrace(wrap));
    wrap.tasks[0].operands[0].bytes = 0x3f;
    EXPECT_TRUE(validateTrace(wrap));
}

TEST(Serve, CarveOverflowRejected)
{
    ServeConfig cfg = tinyServeConfig();
    cfg.carveBytes = 4096; // room for a handful of 256 B regions
    TraceService service(cfg);
    TenantId tenant = service.openTenant("hog");
    ASSERT_EQ(service.submit(tenant, chainProgram(200, 0x5000'0000))
                  .status,
              SubmitStatus::Accepted);
    service.waitIdle();
    ServiceReport report = service.report();
    EXPECT_EQ(tenantOf(report, tenant).rejectedCarve, 1u);
    EXPECT_EQ(tenantOf(report, tenant).completed, 0u);
}

TEST(Serve, TenantCarveExhaustionAnswersErrorNotFatal)
{
    std::ostringstream path;
    path << "/tmp/tss-serve-carve-" << ::getpid() << ".sock";

    // 2^62-byte carves: tenants 0-2 fit below 2^64, tenant 3 does not.
    ServeConfig cfg = tinyServeConfig();
    cfg.carveBytes = std::uint64_t(1) << 62;
    TraceService service(cfg);
    SocketServer server(service, path.str());
    ASSERT_TRUE(server.start());

    ServeClient first, second, third;
    TenantId id = 0;
    std::uint64_t base = 0, end = 0;
    ASSERT_TRUE(first.connect(path.str()));
    ASSERT_TRUE(first.hello("first", id, base, end));
    EXPECT_EQ(id, 0u);
    ASSERT_TRUE(second.connect(path.str()));
    ASSERT_TRUE(second.hello("second", id, base, end));
    ASSERT_TRUE(third.connect(path.str()));
    ASSERT_TRUE(third.hello("third", id, base, end));
    EXPECT_EQ(end, cfg.carveBase + 3 * cfg.carveBytes);

    // The fourth Hello gets an Error frame on a live connection.
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.str().c_str(),
                 sizeof(addr.sun_path) - 1);
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    ASSERT_TRUE(writeFrame(fd, {MsgType::Hello, "fourth"}));
    Frame reply;
    ASSERT_TRUE(readFrame(fd, reply));
    EXPECT_EQ(reply.type, MsgType::Error);
    ::close(fd);
    EXPECT_EQ(service.openTenant("in-process"), invalidTenant);

    // Tenant 0 still submits and completes.
    JobId job = 0;
    while (first.submit(chainProgram(12, 0x5000'0000), job) !=
           SubmitStatus::Accepted)
        ;
    service.waitIdle();
    EXPECT_EQ(tenantOf(service.report(), 0).completed, 1u);

    ASSERT_TRUE(first.shutdown());
    server.waitShutdown();
    server.stop();
}

TEST(Serve, WedgedJobSurvivesAndIsDiagnosed)
{
    // A starvation-tight event budget makes every job retire as
    // Wedged; the daemon must survive, report the diagnosis, and keep
    // completing later work once the budget is sane again.
    ServeConfig cfg = tinyServeConfig();
    cfg.maxEventsPerJob = 50;
    TraceService service(cfg);
    TenantId tenant = service.openTenant("stuck");

    ASSERT_EQ(service.submit(tenant, chainProgram(30, 0x5000'0000))
                  .status,
              SubmitStatus::Accepted);
    service.waitIdle();

    ServiceReport report = service.report();
    EXPECT_EQ(tenantOf(report, tenant).wedged, 1u);
    EXPECT_EQ(tenantOf(report, tenant).completed, 0u);
    const std::string &wedge = tenantOf(report, tenant).lastWedgeJson;
    ASSERT_FALSE(wedge.empty());
    EXPECT_NE(wedge.find("\"completed\": false"), std::string::npos);
    EXPECT_NE(wedge.find("\"slices\""), std::string::npos);

    std::string json = toJson(report);
    EXPECT_NE(json.find("\"wedged\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"last_wedge\""), std::string::npos);
    EXPECT_NE(json.find("\"metrics\""), std::string::npos);

    // The service is still healthy: drain retires everything.
    service.drain();
    EXPECT_TRUE(service.report().drained);
}

TEST(Serve, JobTraceRoundTripsOverSocket)
{
    std::ostringstream path;
    path << "/tmp/tss-serve-trace-" << ::getpid() << ".sock";

    ServeConfig cfg = tinyServeConfig();
    cfg.recordJobTraces = true;
    TraceService service(cfg);
    SocketServer server(service, path.str());
    ASSERT_TRUE(server.start());

    ServeClient client;
    ASSERT_TRUE(client.connect(path.str()));
    TenantId id = 0;
    std::uint64_t base = 0, end = 0;
    ASSERT_TRUE(client.hello("tracer", id, base, end));

    // No job has finished yet: the Trace message reports an error.
    std::string json;
    EXPECT_FALSE(client.trace(json));

    JobId job = 0;
    while (client.submit(chainProgram(12, 0x5000'0000), job) !=
           SubmitStatus::Accepted)
        ;
    service.waitIdle();

    ASSERT_TRUE(client.trace(json));
    ASSERT_FALSE(json.empty());
    // Simulated-cycle events plus the wall-clock serve-stage slices,
    // spliced into one well-formed Chrome document.
    EXPECT_NE(json.find("task.retire"), std::string::npos);
    EXPECT_NE(json.find("serve.parse"), std::string::npos);
    EXPECT_NE(json.find("serve.execute"), std::string::npos);
    EXPECT_EQ(json.substr(json.size() - 4), "\n]}\n");
    EXPECT_EQ(json, service.lastTraceJson(id));

    ASSERT_TRUE(client.shutdown());
    server.waitShutdown();
    server.stop();
}

TEST(Serve, SimMakespanIsDeterministicAcrossServices)
{
    auto run = [] {
        TraceService service(tinyServeConfig());
        TenantId a = service.openTenant("a");
        TenantId b = service.openTenant("b");
        for (unsigned i = 0; i < 4; ++i) {
            while (service
                       .submit(a, chainProgram(64, 0x5000'0000, 300))
                       .status != SubmitStatus::Accepted)
                ;
            while (service
                       .submit(b, chainProgram(32, 0x6000'0000, 500))
                       .status != SubmitStatus::Accepted)
                ;
        }
        service.drain();
        return service.report();
    };
    ServiceReport first = run();
    ServiceReport second = run();
    for (std::size_t i = 0; i < first.tenants.size(); ++i) {
        const PercentileSummary &x = first.tenants[i].simMakespanCycles;
        const PercentileSummary &y =
            second.tenants[i].simMakespanCycles;
        EXPECT_EQ(x.p50, y.p50);
        EXPECT_EQ(x.p95, y.p95);
        EXPECT_EQ(x.p99, y.p99);
        EXPECT_EQ(x.max, y.max);
    }
}

TEST(Serve, TraceTextRoundTrips)
{
    TaskTrace program = chainProgram(10, 0x5000'0000);
    TaskTrace parsed;
    ASSERT_TRUE(parseTraceText(formatTraceText(program), parsed));
    ASSERT_EQ(parsed.size(), program.size());
    EXPECT_EQ(parsed.kernelNames, program.kernelNames);
    for (std::size_t i = 0; i < parsed.size(); ++i) {
        EXPECT_EQ(parsed.tasks[i].kernel, program.tasks[i].kernel);
        EXPECT_EQ(parsed.tasks[i].runtime, program.tasks[i].runtime);
        ASSERT_EQ(parsed.tasks[i].operands.size(),
                  program.tasks[i].operands.size());
        for (std::size_t j = 0; j < parsed.tasks[i].operands.size();
             ++j) {
            EXPECT_EQ(parsed.tasks[i].operands[j].addr,
                      program.tasks[i].operands[j].addr);
            EXPECT_EQ(parsed.tasks[i].operands[j].bytes,
                      program.tasks[i].operands[j].bytes);
        }
    }

    TaskTrace bad;
    EXPECT_FALSE(parseTraceText("bogus 1 2 3\n", bad));
    EXPECT_FALSE(parseTraceText("task 0 100 1\n", bad)); // no kernel
}

TEST(Serve, SocketEndToEnd)
{
    std::ostringstream path;
    path << "/tmp/tss-serve-test-" << ::getpid() << ".sock";

    ServeConfig cfg = tinyServeConfig();
    TraceService service(cfg);
    SocketServer server(service, path.str());
    ASSERT_TRUE(server.start());

    ServeClient alpha, beta;
    ASSERT_TRUE(alpha.connect(path.str()));
    ASSERT_TRUE(beta.connect(path.str()));

    TenantId id_a = 0, id_b = 0;
    std::uint64_t base_a = 0, end_a = 0, base_b = 0, end_b = 0;
    ASSERT_TRUE(alpha.hello("alpha", id_a, base_a, end_a));
    ASSERT_TRUE(beta.hello("beta", id_b, base_b, end_b));
    EXPECT_NE(id_a, id_b);
    EXPECT_LE(std::min(end_a, end_b), std::max(base_a, base_b));

    TaskTrace program = chainProgram(50, 0x5000'0000);
    unsigned accepted = 0;
    for (unsigned i = 0; i < 4; ++i) {
        JobId job = 0;
        while (alpha.submit(program, job) != SubmitStatus::Accepted)
            ;
        EXPECT_GT(job, 0u);
        while (beta.submit(program, job) != SubmitStatus::Accepted)
            ;
        ++accepted;
    }
    service.waitIdle();

    std::string json;
    ASSERT_TRUE(alpha.stats(json));
    EXPECT_NE(json.find("\"tenants\""), std::string::npos);
    EXPECT_NE(json.find("\"sim_makespan_cycles\""), std::string::npos);
    EXPECT_NE(json.find("\"alpha\""), std::string::npos);
    EXPECT_NE(json.find("\"beta\""), std::string::npos);

    ASSERT_TRUE(beta.shutdown());
    server.waitShutdown();
    server.stop();

    ServiceReport report = service.report();
    EXPECT_TRUE(report.drained);
    EXPECT_EQ(tenantOf(report, id_a).completed, accepted);
    EXPECT_EQ(tenantOf(report, id_b).completed, accepted);
}

TEST(SessionLifecycleDeathTest, SubmitAfterSealDies)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Session session = Session::forTrace("late");
    session.submitTrace(chainProgram(4, 0x5000'0000));
    session.seal();
    EXPECT_EXIT(session.submitTask(0, 100, {}),
                testing::ExitedWithCode(1), "after seal");
}

TEST(SessionLifecycleDeathTest, SimulateBeforeSealDies)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Session session = Session::forTrace("early");
    session.submitTrace(chainProgram(4, 0x5000'0000));
    PipelineConfig cfg;
    EXPECT_EXIT((void)session.simulate(cfg),
                testing::ExitedWithCode(1), "before seal");
}

TEST(SessionLifecycleDeathTest, TraceBackedCannotRunReal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Session session = Session::forTrace("simonly");
    session.submitTrace(chainProgram(4, 0x5000'0000));
    session.seal();
    EXPECT_EXIT((void)session.runParallel(2),
                testing::ExitedWithCode(1),
                "context-backed");
}

} // namespace
} // namespace tss::serve
