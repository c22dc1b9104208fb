/**
 * @file
 * The discrete-event simulation kernel. An event queue drives the
 * modules of one NoC domain (the whole system is a single domain in
 * the classic configuration); events scheduled for the same cycle
 * execute in (priority, station, per-station sequence) order so that
 * simulations are fully deterministic — the same tie-break key the
 * parallel engine (sim/sim_engine.hh) uses to merge cross-domain
 * operations at window barriers.
 */

#ifndef TSS_SIM_EVENT_QUEUE_HH
#define TSS_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <deque>
#include <vector>

#include "event.hh"
#include "exec_context.hh"
#include "logging.hh"
#include "obs/trace.hh"
#include "types.hh"

namespace tss
{

/**
 * Callback type executed when an event fires: a move-only pooled
 * callable (see event.hh), so scheduling a small closure allocates
 * nothing and closures may own resources (e.g. in-flight messages).
 */
using EventFn = EventCallback;

/**
 * A deterministic discrete-event queue.
 *
 * Ties at the same cycle break first on priority (lower first), then
 * on the scheduling station id, then on the station's own sequence
 * number — FIFO among same-cycle events of one station, and a total
 * order overall. Events scheduled without a station (plain
 * schedule()) share the anonymous station -1 and therefore keep the
 * historical global-FIFO behavior.
 *
 * Storage is split in two: callbacks live in a slab whose slots are
 * recycled through a free list (so scheduling allocates nothing once
 * the slab is warm), while 32-byte POD keys referencing slab slots
 * carry the ordering. The keys sit in a calendar queue: a ring of
 * ringBuckets per-cycle buckets covering [now, now + ringBuckets),
 * each a small heap on (priority, station, seq), plus a 64-bit
 * occupancy bitmap, so finding the next busy cycle is one rotate and
 * one count-trailing-zeros. Events beyond the ring's span wait in an
 * overflow heap on the full key and migrate into the ring as time
 * advances. Pops follow exactly the (cycle, priority, station, seq)
 * order a single global heap would produce.
 */
class EventQueue
{
  public:
    /** Default event priority. */
    static constexpr int defaultPriority = 0;

    /** The anonymous station of plain schedule() calls. */
    static constexpr std::int32_t noStation = -1;

    /** Current simulated time. */
    Cycle now() const { return _now; }

    /** Per-cycle buckets of the calendar ring (one bitmap word). */
    static constexpr unsigned ringBuckets = 64;

    /** True when no events remain. */
    bool empty() const { return numPending == 0; }

    /** Number of pending events. */
    std::size_t size() const { return numPending; }

    /** Total number of events executed so far. */
    std::uint64_t executed() const { return numExecuted; }

    /** Firing time of the earliest pending event (invalidCycle: none). */
    Cycle
    nextTime() const
    {
        if (occupied != 0) {
            int base = static_cast<int>(_now & ringMask);
            return _now + std::countr_zero(std::rotr(occupied, base));
        }
        return overflow.empty() ? invalidCycle : overflow.front().when;
    }

    /**
     * Schedule an event at an absolute cycle on behalf of a station.
     * @param when Absolute firing time; must not be in the past.
     * @param station Scheduling station (a NoC node id), or noStation.
     * @param fn Callback to execute.
     * @param priority Tie-break priority (lower fires first).
     */
    void
    scheduleStation(Cycle when, std::int32_t station, EventFn fn,
                    int priority = defaultPriority)
    {
        TSS_ASSERT(when >= _now,
                   "event scheduled in the past (%llu < %llu)",
                   (unsigned long long)when, (unsigned long long)_now);
        std::uint32_t slot;
        if (freeSlots.empty()) {
            slot = static_cast<std::uint32_t>(slab.size());
            slab.push_back(std::move(fn));
        } else {
            slot = freeSlots.back();
            freeSlots.pop_back();
            slab[slot] = std::move(fn);
        }
        Key key{when, stationSeq(station), priority, station, slot};
        if (when - _now < ringBuckets) {
            pushBucket(key);
        } else {
            overflow.push_back(key);
            std::push_heap(overflow.begin(), overflow.end(), Later{});
        }
        ++numPending;
    }

    /** Schedule an event at an absolute cycle (anonymous station). */
    void
    schedule(Cycle when, EventFn fn, int priority = defaultPriority)
    {
        scheduleStation(when, noStation, std::move(fn), priority);
    }

    /** Schedule an event @p delay cycles from now. */
    void
    scheduleIn(Cycle delay, EventFn fn, int priority = defaultPriority)
    {
        schedule(_now + delay, std::move(fn), priority);
    }

    /**
     * Execute the next pending event, advancing simulated time.
     * @retval true if an event was executed.
     */
    bool
    step()
    {
        if (empty())
            return false;
        fire(nextTime());
        return true;
    }

    /**
     * Run until the queue drains or @p max_events have executed.
     * @return The number of events executed by this call.
     */
    std::uint64_t
    run(std::uint64_t max_events = ~std::uint64_t(0))
    {
        std::uint64_t n = 0;
        while (n < max_events && step())
            ++n;
        return n;
    }

    /**
     * Run until simulated time would exceed @p limit (events at
     * exactly @p limit still execute).
     */
    std::uint64_t
    runUntil(Cycle limit)
    {
        std::uint64_t n = 0;
        for (Cycle t; !empty() && (t = nextTime()) <= limit; ++n)
            fire(t);
        return n;
    }

    /**
     * runUntil that additionally appends the firing time of every
     * event executed strictly after @p ahead_after to @p log, in
     * execution order. The parallel engine uses it to let a wide
     * domain run ahead of the global window grid while keeping a
     * virtual record of when those events would have been pending
     * (SimEngine::virtualNext).
     */
    std::uint64_t
    runUntil(Cycle limit, Cycle ahead_after, std::deque<Cycle> *log)
    {
        std::uint64_t n = 0;
        for (Cycle t; !empty() && (t = nextTime()) <= limit; ++n) {
            if (t > ahead_after)
                log->push_back(t);
            fire(t);
        }
        return n;
    }

    /** Callback slots currently parked in the slab (for tests). */
    std::size_t slabCapacity() const { return slab.size(); }

    /**
     * Wire the deferred-operation sink of the parallel engine. While
     * set, every executed event runs under a thread-local ExecContext
     * (see exec_context.hh) and cross-domain operations defer.
     */
    void setDeferSink(DeferSink *s) { sink = s; }

    /**
     * Wire the flight recorder's buffer for this shard. While set,
     * every executed event emits into it via the thread-local
     * obs::traceBuf, which step() scopes to the event — the TLS
     * pointer is never left set across runs (independent Systems
     * drain on shared host threads in tss-serve).
     */
    void setTraceBuf(obs::TraceBuf *t) { trace = t; }

    /**
     * Conservative floor on deferred operations that schedule onto
     * this queue: the end of the global-grid window just drained, set
     * by the engine around the barrier's apply phase (0 outside it,
     * making the bound a no-op — bare queues and the software-runtime
     * model are unaffected). Deliveries that compute below it — only
     * same-station self-messages can, see sim/sim_engine.hh — are
     * lifted to the floor by the apply closures (network delivery,
     * DMA completion, TRS watermark flush) as
     * `max(computed_time, windowFloor())`. The floor is the same for
     * every shard — the delay-matrix mode lets wide domains run ahead
     * of the grid but never moves the grid itself — which is what
     * keeps the clamp bit-identical across lookahead modes.
     *
     * Per queue rather than process-global: independent Systems
     * simulating concurrently (tss-serve runs one per execute worker)
     * must never observe each other's window ends.
     */
    void setWindowFloor(Cycle floor) { _windowFloor = floor; }
    Cycle windowFloor() const { return _windowFloor; }

  private:
    /** Ordering key referencing a slab slot; a 32-byte POD. */
    struct Key
    {
        Cycle when;
        std::uint64_t seq;
        int priority;
        std::int32_t station;
        std::uint32_t slot;
    };

    struct Later
    {
        bool
        operator()(const Key &a, const Key &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.priority != b.priority)
                return a.priority > b.priority;
            if (a.station != b.station)
                return a.station > b.station;
            return a.seq > b.seq;
        }
    };

    static constexpr Cycle ringMask = ringBuckets - 1;

    /** Next per-station sequence number (dense array, -1 at [0]). */
    std::uint64_t
    stationSeq(std::int32_t station)
    {
        auto index = static_cast<std::size_t>(station + 1);
        if (index >= seqOf.size())
            seqOf.resize(index + 1, 0);
        return seqOf[index]++;
    }

    /** File @p key into its cycle's bucket (within the ring span). */
    void
    pushBucket(const Key &key)
    {
        auto index = static_cast<unsigned>(key.when & ringMask);
        auto &bucket = ring[index];
        bucket.push_back(key);
        std::push_heap(bucket.begin(), bucket.end(), Later{});
        occupied |= std::uint64_t(1) << index;
    }

    /**
     * Execute the first event of cycle @p when (the earliest pending
     * cycle). Advancing time slides the ring, so overflow events that
     * now fall inside its span migrate into their buckets first.
     */
    void
    fire(Cycle when)
    {
        TSS_ASSERT(when >= _now, "event queue went backwards");
        if (when != _now) {
            _now = when;
            while (!overflow.empty() &&
                   overflow.front().when - _now < ringBuckets) {
                std::pop_heap(overflow.begin(), overflow.end(), Later{});
                pushBucket(overflow.back());
                overflow.pop_back();
            }
        }
        auto index = static_cast<unsigned>(when & ringMask);
        auto &bucket = ring[index];
        std::pop_heap(bucket.begin(), bucket.end(), Later{});
        Key top = bucket.back();
        bucket.pop_back();
        if (bucket.empty())
            occupied &= ~(std::uint64_t(1) << index);
        --numPending;
        TSS_ASSERT(top.when == when, "calendar bucket holds cycle %llu "
                   "at %llu", (unsigned long long)top.when,
                   (unsigned long long)when);
        TSS_ASSERT(!(top.when == lastKey.when &&
                     top.priority == lastKey.priority &&
                     top.station == lastKey.station &&
                     top.seq == lastKey.seq && numExecuted > 0),
                   "duplicate event ordering key (station %d seq %llu "
                   "at cycle %llu)",
                   (int)top.station, (unsigned long long)top.seq,
                   (unsigned long long)top.when);
        lastKey = top;
        EventFn fn = std::move(slab[top.slot]);
        freeSlots.push_back(top.slot);
        ++numExecuted;
        if (trace)
            obs::traceBuf = trace;
        if (sink) {
            execCtx.sink = sink;
            execCtx.queue = this;
            execCtx.station = top.station;
            execCtx.seq = top.seq;
            execCtx.when = top.when;
            execCtx.opIndex = 0;
            fn();
            execCtx = ExecContext{};
        } else {
            fn();
        }
        if (trace)
            obs::traceBuf = nullptr;
    }

    /// Calendar ring: bucket (t % ringBuckets) holds the events of
    /// cycle t for t in [_now, _now + ringBuckets); bit i of
    /// `occupied` is set while bucket i is non-empty.
    std::array<std::vector<Key>, ringBuckets> ring;
    std::uint64_t occupied = 0;
    /// Events at or beyond _now + ringBuckets (a heap on Later).
    std::vector<Key> overflow;
    std::size_t numPending = 0;
    std::vector<EventFn> slab;
    std::vector<std::uint32_t> freeSlots;
    std::vector<std::uint64_t> seqOf;
    Cycle _now = 0;
    Key lastKey{invalidCycle, 0, 0, noStation, 0};
    std::uint64_t numExecuted = 0;
    Cycle _windowFloor = 0;
    DeferSink *sink = nullptr;
    obs::TraceBuf *trace = nullptr;
};

} // namespace tss

#endif // TSS_SIM_EVENT_QUEUE_HH
