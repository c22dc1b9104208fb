/**
 * @file
 * Execution context of the windowed simulation engine. While the
 * engine's event queue drains a lookahead window, every event runs
 * with a thread-local ExecContext describing *which* event is
 * executing — (station, domain, per-station sequence, cycle) — and
 * carrying the engine's DeferSink. Operations that touch state
 * outside the event's own NoC domain (network sends, DMA transfers)
 * are not applied in place: they are recorded into the sink under a
 * totally ordered DeferKey and applied by the engine at the window
 * barrier in sorted order.
 *
 * Because the sort key is a pure function of simulated state — never
 * of the order in which the window's domains interleaved — the apply
 * order, and with it every simulated statistic, is deterministic.
 *
 * When no engine is driving (a bare EventQueue in a unit test, the
 * software-runtime model), the context's sink is null and every
 * operation applies immediately — the historical behavior.
 */

#ifndef TSS_SIM_EXEC_CONTEXT_HH
#define TSS_SIM_EXEC_CONTEXT_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "event.hh"
#include "types.hh"

namespace tss
{

/**
 * Total order over deferred operations: (cycle, station, per-station
 * sequence, per-event operation index). Stations are globally unique
 * NoC node ids and a station belongs to exactly one domain, so the
 * key is globally unique and independent of how domains interleave.
 */
struct DeferKey
{
    Cycle when = 0;
    std::int32_t station = -1;
    std::uint64_t seq = 0;
    std::uint32_t op = 0;

    friend bool
    operator<(const DeferKey &a, const DeferKey &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        if (a.station != b.station)
            return a.station < b.station;
        if (a.seq != b.seq)
            return a.seq < b.seq;
        return a.op < b.op;
    }

    friend bool
    operator==(const DeferKey &a, const DeferKey &b)
    {
        return a.when == b.when && a.station == b.station &&
            a.seq == b.seq && a.op == b.op;
    }
};

/**
 * The engine's log of deferred operations. A window's events append;
 * the barrier sorts the log in place, applies it and clears it. The
 * log keeps its capacity, so a warm barrier never allocates.
 */
class DeferSink
{
  public:
    using Op = std::pair<DeferKey, EventCallback>;

    void
    record(DeferKey key, EventCallback apply)
    {
        ops.emplace_back(key, std::move(apply));
    }

    /** The recorded operations, for the barrier to sort and apply. */
    std::vector<Op> &log() { return ops; }

  private:
    std::vector<Op> ops;
};

/**
 * The thread-local context of the currently executing event. Set by
 * EventQueue::step() when (and only when) a DeferSink is wired to the
 * queue; cleared after the event returns. `sink == nullptr` means "no
 * engine: apply operations immediately".
 */
struct ExecContext
{
    DeferSink *sink = nullptr;
    std::int32_t station = -1;
    unsigned domain = 0; ///< the station's NoC domain
    std::uint64_t seq = 0;
    Cycle when = 0;
    std::uint32_t opIndex = 0;

    /** Key for the next deferred op of this event. */
    DeferKey
    nextKey()
    {
        return DeferKey{when, station, seq, opIndex++};
    }
};

extern thread_local ExecContext execCtx;

} // namespace tss

#endif // TSS_SIM_EXEC_CONTEXT_HH
