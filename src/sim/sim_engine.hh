/**
 * @file
 * Windowed discrete-event engine. SimObject stations are partitioned
 * into NoC domains (one per frontend pipeline: the slice plus its
 * attached gateway/TRS stations, sources and processor-ring cores
 * assigned round-robin, plus a dedicated domain for the shared
 * backend — network, DMA, scheduler); each domain owns a
 * slab-recycled EventQueue shard.
 *
 * One sequential loop drives the shards in lookahead windows. Each
 * pass takes t0 as the minimum next event time over all shards and
 * drains every shard with events in [t0, t0 + L - 1], where
 * L = Network::minDeliveryDelay(). Every operation that crosses
 * domain state — NoC sends, DMA transfers, registry retirement,
 * global gauges — is recorded in the draining shard's DeferSink
 * instead of applied in place. At the window barrier the engine
 * sorts the union of all logs by the (cycle, station, per-station
 * sequence, op) key and applies it in that order.
 *
 * The barrier is what defines the simulated semantics: a
 * cross-domain effect lands at the window end, in DeferKey order,
 * whatever order the shards drained in. Every golden statistic,
 * gated BENCH cell and exported trace byte is a function of that
 * rule, so the windows stay even though one thread drains them all.
 *
 * Conservative safety: every op applied at a barrier was recorded in
 * the window just drained, so a delivery it computes lands at
 * >= t0 + L — after everything any shard has executed. Same-station
 * self-messages are the one exception (their delay can undercut L);
 * they are floored at the window end (EventQueue::windowFloor).
 * EventQueue::scheduleStation's past-scheduling assertion backstops
 * the argument.
 *
 * Window fusion: the counters record windows with one active shard
 * (the long single-domain stretches every real trace has) and runs
 * of consecutive ones; every counter is a pure function of simulated
 * state and gates exactly in BENCH_sim.json.
 */

#ifndef TSS_SIM_SIM_ENGINE_HH
#define TSS_SIM_SIM_ENGINE_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "event_queue.hh"
#include "exec_context.hh"

namespace tss
{

namespace obs
{
class Tracer;
} // namespace obs

/** The sharded, window-synchronized event engine. */
class SimEngine
{
  public:
    /**
     * Deterministic window-structure counters: every field is a pure
     * function of simulated state (which shards had events inside
     * each window) — gated exactly in BENCH_sim.json.
     */
    struct WindowStats
    {
        std::uint64_t windows = 0;      ///< lookahead windows run
        std::uint64_t singleShard = 0;  ///< windows with one active shard
        std::uint64_t fusedWindows = 0; ///< consecutive single-shard
        std::uint64_t multiShard = 0;   ///< windows with >= 2 active
        std::uint64_t occupancySum = 0; ///< Σ active shards per window
        std::uint64_t maxOccupancy = 0; ///< peak active shards
    };

    /** @param num_domains Number of event-queue shards. */
    explicit SimEngine(unsigned num_domains);

    SimEngine(const SimEngine &) = delete;
    SimEngine &operator=(const SimEngine &) = delete;

    /**
     * Set the lookahead window length (cycles). Must be >= 1; derive
     * it from Network::minDeliveryDelay() so that real routes are
     * never floored.
     */
    void setLookahead(Cycle l);

    unsigned numDomains() const
    {
        return static_cast<unsigned>(shards.size());
    }

    EventQueue &shard(unsigned domain) { return shards[domain]->queue; }

    /**
     * Wire a flight recorder (or unwire with nullptr). The tracer
     * must have one buffer per domain; the engine routes barrier-side
     * emissions and drains the window's records after every barrier,
     * in DeferKey order.
     */
    void setTracer(obs::Tracer *t);

    /** Latest simulated time any shard has reached. */
    Cycle now() const;

    /** True when every shard has drained. */
    bool empty() const;

    /** Total events executed across all shards. */
    std::uint64_t executed() const;

    /** Deterministic window-structure counters so far. */
    const WindowStats &windowStats() const { return wstats; }

    /**
     * Run lookahead windows until every shard drains or at least
     * @p max_events events have executed (checked at window barriers;
     * a window may overshoot the budget — deterministically).
     * @return Events executed by this call.
     */
    std::uint64_t run(std::uint64_t max_events = ~std::uint64_t(0));

  private:
    struct Shard
    {
        EventQueue queue;
        DeferSink sink;
    };

    std::size_t applyBarrier(Cycle window_end);

    std::vector<std::unique_ptr<Shard>> shards;
    Cycle _lookahead = 1;
    obs::Tracer *tracer = nullptr;
    WindowStats wstats;
    bool lastWindowSingle = false;

    /// The barrier's merge buffer; kept across windows so a warm
    /// barrier never allocates.
    std::vector<std::pair<DeferKey, EventCallback>> pending;
};

} // namespace tss

#endif // TSS_SIM_SIM_ENGINE_HH
