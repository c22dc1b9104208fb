/**
 * @file
 * Shared pieces of the repository benchmark (perfbench): run options,
 * the metric/outcome record every workload returns, the in-memory
 * span log of the traced run, and the one simulation step every
 * workload times — SystemBuilder::build → System::runWatchdog →
 * collectResult + registry snapshot → teardown, the sequence
 * Session::simulateMonitored performs.
 */

#ifndef TSS_PERFBENCH_BENCH_HH
#define TSS_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/system.hh"
#include "graph/dep_graph.hh"
#include "trace/task_trace.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p since. */
double secondsSince(Clock::time_point since);

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;   ///< measured time budget
    bool traced = false;   ///< per-layer run (spans on)
    std::string outDir;    ///< spans, results and determinism ledger
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/**
 * Deterministic simulated totals of one measured pass. Every pass of
 * a run, and every run of one (workload, seed), must agree exactly.
 */
struct SimTotals
{
    std::uint64_t sims = 0;
    std::uint64_t simCycles = 0; ///< Σ makespans
    double decodeSum = 0;        ///< Σ per-simulation decode rates
    std::uint64_t events = 0;
    std::uint64_t messages = 0;
    std::uint64_t windows = 0;
    std::uint64_t multiShardWindows = 0;
    std::uint64_t fusedWindows = 0;
    std::uint64_t linkTraversals = 0;
    std::uint64_t linkWaitCycles = 0;
    std::uint64_t decodeDeferrals = 0;
    std::uint64_t gatewayStallCycles = 0;
    std::uint64_t versionsCreated = 0;
    std::uint64_t versionsRenamed = 0;

    void add(const tss::RunResult &r);
    double decodePerTask() const { return sims ? decodeSum / sims : 0; }
    bool operator==(const SimTotals &) const = default;
};

/** What a workload hands back: counts, checks and metrics. */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> notes; ///< informational, printed
    SimTotals totals;               ///< one pass; ledger-checked

    /** Count one failed operation and say why on stderr. */
    void fail(const std::string &why);
    /** fail(@p why) unless @p ok. */
    void check(bool ok, const std::string &why);
    void add(std::string name, double value, std::string unit);
    bool correct() const { return failed == 0; }
};

/**
 * The benchmark's own spans, kept in memory and written at the end
 * of the run: name, start, end and parent, on the benchmark's thread.
 * A disabled log still times each scope (the per-layer numbers and
 * the untraced reference read the same clock) but stores nothing.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        std::int64_t startNs = 0;
        std::int64_t endNs = -1;
        int parent = -1;
    };

    /** One open span; closes at scope end or on close(). */
    class Scope
    {
      public:
        Scope(SpanLog &log, const char *name);
        ~Scope() { close(); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** End the span (idempotent); returns its length in seconds. */
        double close();

      private:
        SpanLog &log;
        Clock::time_point start;
        int id = -1;
        double seconds = -1;
    };

    explicit SpanLog(Clock::time_point origin) : origin(origin) {}

    bool enabled = false;

    Scope span(const char *name) { return Scope(*this, name); }

    std::size_t size() const { return spans.size(); }

    /** Write every span plus a per-name summary with self time. */
    bool write(const std::string &path) const;

  private:
    std::int64_t ns(Clock::time_point t) const;

    Clock::time_point origin;
    std::vector<Span> spans;
    std::vector<int> open; ///< stack of open span ids
};

/// @name Order statistics (nearest-rank, like serve::LatencyRecorder).
/// @{
double median(std::vector<double> v);
double percentile(std::vector<double> v, double q);
/// @}

/** Host seconds of each stage of one simulation. */
struct SimTiming
{
    double build = 0, run = 0, collect = 0, teardown = 0;
    double total() const { return build + run + collect + teardown; }
};

struct SimRun
{
    bool completed = false;
    tss::RunResult result;
    SimTiming t;
};

/** Upper bound on events of any single benchmark simulation. */
constexpr std::uint64_t kMaxEvents = 2'000'000'000ull;

/**
 * Build, run, collect and tear down one System over @p trace, with a
 * span around each layer call. @p thread_of empty = one generating
 * thread.
 */
SimRun simulate(const tss::PipelineConfig &cfg,
                const tss::TaskTrace &trace,
                const std::vector<unsigned> &thread_of, SpanLog &log);

/**
 * The per-simulation correctness gate: every task completed and the
 * start order respects the renamed dependency graph. Counts one
 * attempted operation in @p out, and a failure when the gate fails.
 */
bool checkRun(const SimRun &run, const tss::TaskTrace &trace,
              const tss::DepGraph &graph, Outcome &out,
              const std::string &what);

/** True when every deterministic field of @p a and @p b agrees. */
bool identical(const tss::RunResult &a, const tss::RunResult &b);

/**
 * Run @p setup at least 5 times and until 0.5 s of set-up time has
 * accumulated (at most 101 times); returns the median seconds. The
 * last repetition's products are the ones the run then uses.
 * @p between, when given, runs untimed between repetitions.
 */
double timeSetup(const std::function<void()> &setup,
                 const std::function<void()> &between = {});

/** Peak resident set size of this process, in MiB. */
double peakRssMiB();

/**
 * The measured loop: call @p pass until @p seconds have elapsed (at
 * least once). A traced run alternates untraced and traced passes,
 * untraced first, at least one of each, toggling log.enabled; the
 * untraced ones are the reference for the tracing overhead.
 */
void measureLoop(const Options &opt, double seconds, SpanLog &log,
                 const std::function<void(bool traced)> &pass);

/**
 * The end-to-end metrics every workload reports: the median host time
 * of a measured pass (@p pass_s), the jobs a pass completes (served
 * jobs, or 1 for a batch workload's pass), the deterministic totals of
 * one pass (out.totals) and the set-up time.
 */
void addEndToEnd(Outcome &out, const std::vector<double> &pass_s,
                 double jobs_per_pass, double setup_s);

/** Tracing overhead in percent: traced over untraced median time. */
void addOverhead(Outcome &out, const std::vector<double> &untraced,
                 const std::vector<double> &traced);

/// @name Per-layer metrics shared by the simulation workloads.
/// @{
/** Counters of one pass, from RunResult (sim.*, noc.*, core.*). */
void addCounterMetrics(Outcome &out, const SimTotals &t);

/**
 * Stage timings of the traced passes: core.build_ms_p50,
 * core.teardown_ms_p50, obs.collect_ms, sim.run_s (median per pass)
 * and sim.ns_per_event.
 */
void addStageMetrics(Outcome &out, const std::vector<SimTiming> &sims,
                     const std::vector<double> &pass_run_seconds,
                     std::uint64_t events_per_pass);
/// @}

/// @name Workloads (one file each).
/// @{
Outcome runDecodeSweep(const Options &opt, SpanLog &log);
Outcome runWideMt(const Options &opt, SpanLog &log);
Outcome runServeMix(const Options &opt, SpanLog &log);
/// @}

} // namespace perfbench

#endif // TSS_PERFBENCH_BENCH_HH
