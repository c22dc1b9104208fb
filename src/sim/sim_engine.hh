/**
 * @file
 * Windowed discrete-event engine. SimObject stations are partitioned
 * into NoC domains (one per frontend pipeline: the slice plus its
 * attached gateway/TRS stations, sources and processor-ring cores
 * assigned round-robin, plus a dedicated backend domain for the
 * shared scheduler). A domain is a tag, not a queue: the
 * engine owns one EventQueue, which records each station's domain
 * (EventQueue::setDomain) and stamps it on every event.
 *
 * One sequential loop drives the queue in lookahead windows. Each
 * pass takes t0 as the next event time and drains every event in
 * [t0, t0 + L - 1], where L = Network::minDeliveryDelay(). Every
 * operation that crosses domain state — NoC sends, DMA transfers —
 * is recorded in the engine's DeferSink instead of applied in place,
 * and an event may schedule directly only onto stations of its own
 * domain (EventQueue::scheduleStation asserts it). At the window
 * barrier the engine sorts the log by the (cycle, station,
 * per-station sequence, op) key and applies it in that order.
 *
 * The barrier is what defines the simulated semantics: a
 * cross-domain effect lands at the window end, in DeferKey order,
 * however the window's domains interleaved. Every golden statistic,
 * gated BENCH cell and exported trace byte is a function of that
 * rule. Because no domain inserts into another inside a window and
 * stations are unique per domain, the events of any one domain fire
 * in the same order whether the domains drain one after another or
 * interleaved by time, as the single queue does.
 *
 * Conservative safety: every op applied at a barrier was recorded in
 * the window just drained, so a delivery it computes lands at
 * >= t0 + L — after everything the window executed. Same-station
 * self-messages are the one exception (their delay can undercut L);
 * they are floored at the window end (EventQueue::windowFloor).
 * EventQueue::scheduleStation's past-scheduling assertion backstops
 * the argument.
 *
 * Window counters: each window's active domains are the set bits of
 * a bitset the queue ORs every fired event's domain into. The counters record windows with one
 * active domain (the long single-domain stretches every real trace
 * has) and runs of consecutive ones; every counter is a pure
 * function of simulated state and gates exactly in BENCH_sim.json.
 */

#ifndef TSS_SIM_SIM_ENGINE_HH
#define TSS_SIM_SIM_ENGINE_HH

#include <cstdint>
#include <vector>

#include "event_queue.hh"
#include "exec_context.hh"

namespace tss
{

namespace obs
{
class Tracer;
} // namespace obs

/** The window-synchronized event engine over one tagged queue. */
class SimEngine
{
  public:
    /**
     * Deterministic window-structure counters: every field is a pure
     * function of simulated state (which domains had events inside
     * each window) — gated exactly in BENCH_sim.json, whose cells
     * (and the metrics names) still say "shard" for "domain".
     */
    struct WindowStats
    {
        std::uint64_t windows = 0;      ///< lookahead windows run
        std::uint64_t singleDomain = 0; ///< windows with one active
        std::uint64_t fusedWindows = 0; ///< consecutive single-domain
        std::uint64_t multiDomain = 0;  ///< windows with >= 2 active
        std::uint64_t occupancySum = 0; ///< Σ active domains per window
        std::uint64_t maxOccupancy = 0; ///< peak active domains
    };

    /** @param num_domains Number of NoC domains. */
    explicit SimEngine(unsigned num_domains);

    SimEngine(const SimEngine &) = delete;
    SimEngine &operator=(const SimEngine &) = delete;

    /**
     * Set the lookahead window length (cycles). Must be >= 1; derive
     * it from Network::minDeliveryDelay() so that real routes are
     * never floored.
     */
    void setLookahead(Cycle l);

    unsigned numDomains() const { return _numDomains; }

    /** The one queue every module schedules on. */
    EventQueue &queue() { return q; }

    /**
     * Wire a flight recorder (or unwire with nullptr). The tracer
     * must have one buffer per domain; the engine routes barrier-side
     * emissions and drains the window's records after every barrier,
     * in DeferKey order.
     */
    void setTracer(obs::Tracer *t);

    /** Latest simulated time reached. */
    Cycle now() const { return q.now(); }

    /** True when no event is pending. */
    bool empty() const { return q.empty(); }

    /** Total events executed. */
    std::uint64_t executed() const { return q.executed(); }

    /** Deterministic window-structure counters so far. */
    const WindowStats &windowStats() const { return wstats; }

    /**
     * Run lookahead windows until the queue drains or at least
     * @p max_events events have executed (checked at window barriers;
     * a window may overshoot the budget — deterministically).
     * @return Events executed by this call.
     */
    std::uint64_t run(std::uint64_t max_events = ~std::uint64_t(0));

  private:
    std::size_t applyBarrier(Cycle window_end);

    EventQueue q;
    DeferSink sink;
    unsigned _numDomains;
    Cycle _lookahead = 1;
    obs::Tracer *tracer = nullptr;
    WindowStats wstats;
    bool lastWindowSingle = false;
    /// Bitset of the domains that fired in the current window.
    std::vector<std::uint64_t> fired;
};

} // namespace tss

#endif // TSS_SIM_SIM_ENGINE_HH
