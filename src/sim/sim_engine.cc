#include "sim_engine.hh"

#include <algorithm>

#include "logging.hh"
#include "obs/trace.hh"

namespace tss
{

namespace
{

bool
keyLess(const std::pair<DeferKey, EventCallback> &a,
        const std::pair<DeferKey, EventCallback> &b)
{
    return a.first < b.first;
}

} // namespace

SimEngine::SimEngine(unsigned num_domains)
{
    TSS_ASSERT(num_domains >= 1, "engine needs at least one domain");
    shards.reserve(num_domains);
    for (unsigned d = 0; d < num_domains; ++d) {
        auto s = std::make_unique<Shard>();
        s->queue.setDeferSink(&s->sink);
        shards.push_back(std::move(s));
    }
}

void
SimEngine::setLookahead(Cycle l)
{
    TSS_ASSERT(l >= 1, "lookahead must be at least one cycle");
    _lookahead = l;
}

Cycle
SimEngine::now() const
{
    Cycle t = 0;
    for (const auto &s : shards)
        t = std::max(t, s->queue.now());
    return t;
}

bool
SimEngine::empty() const
{
    for (const auto &s : shards) {
        if (!s->queue.empty())
            return false;
    }
    return true;
}

std::uint64_t
SimEngine::executed() const
{
    std::uint64_t n = 0;
    for (const auto &s : shards)
        n += s->queue.executed();
    return n;
}

void
SimEngine::setTracer(obs::Tracer *t)
{
    TSS_ASSERT(!t || t->numShards() == shards.size(),
               "tracer shard-buffer count must match engine domains");
    tracer = t;
    for (unsigned d = 0; d < shards.size(); ++d)
        shards[d]->queue.setTraceBuf(t ? t->shardBuf(d) : nullptr);
}

std::size_t
SimEngine::applyBarrier(Cycle window_end)
{
    // Each log is usually in key order already — one shard's events
    // run in cycle order — so the sort is skipped when the union is.
    for (auto &s : shards)
        s->sink.drainInto(pending);
    if (pending.empty())
        return 0;
    if (!std::is_sorted(pending.begin(), pending.end(), keyLess))
        std::sort(pending.begin(), pending.end(), keyLess);
    for (std::size_t i = 1; i < pending.size(); ++i) {
        TSS_ASSERT(!(pending[i - 1].first == pending[i].first),
                   "duplicate deferred-operation key (station %d seq "
                   "%llu at cycle %llu)",
                   (int)pending[i].first.station,
                   (unsigned long long)pending[i].first.seq,
                   (unsigned long long)pending[i].first.when);
    }
    TSS_ASSERT(pending.back().first.when <= window_end,
               "deferred operation recorded at cycle %llu, after the "
               "window end %llu",
               (unsigned long long)pending.back().first.when,
               (unsigned long long)window_end);

    // Deliveries computed below the window end (only same-station
    // self-messages can be) are floored at it. See
    // EventQueue::setWindowFloor.
    for (auto &s : shards)
        s->queue.setWindowFloor(window_end + 1);
    for (auto &op : pending)
        op.second();
    for (auto &s : shards)
        s->queue.setWindowFloor(0);

    std::size_t applied = pending.size();
    pending.clear();
    return applied;
}

std::uint64_t
SimEngine::run(std::uint64_t max_events)
{
    const std::uint64_t start = executed();
    while (true) {
        Cycle t0 = invalidCycle;
        for (const auto &s : shards)
            t0 = std::min(t0, s->queue.nextTime());
        if (t0 == invalidCycle)
            break;

        // Drain every shard with events inside the window. No drain
        // touches another shard: cross-domain effects wait in the
        // sinks for the barrier.
        const Cycle window_end = t0 + _lookahead - 1;
        unsigned active = 0;
        for (auto &s : shards) {
            if (s->queue.nextTime() <= window_end) {
                ++active;
                s->queue.runUntil(window_end);
            }
        }
        ++wstats.windows;
        wstats.occupancySum += active;
        wstats.maxOccupancy =
            std::max<std::uint64_t>(wstats.maxOccupancy, active);
        if (active == 1) {
            ++wstats.singleShard;
            if (lastWindowSingle)
                ++wstats.fusedWindows;
        } else {
            ++wstats.multiShard;
        }
        lastWindowSingle = active == 1;

        // Deferred NoC sends/deliveries emit trace records too: route
        // them to the tracer's barrier buffer for the apply phase,
        // stamp the window, then drain this window's records in
        // DeferKey order.
        if (tracer)
            tracer->beginBarrier();
        std::size_t applied = applyBarrier(window_end);
        if (tracer) {
            if (applied > 0)
                tracer->recordWindowBarrier(t0 + _lookahead, applied);
            tracer->endBarrier();
            tracer->drainWindow();
        }

        if (executed() - start >= max_events)
            break; // deterministic overshoot: checked at barriers only
    }
    return executed() - start;
}

} // namespace tss
