#include "sim_engine.hh"

#include <algorithm>
#include <bit>

#include "logging.hh"
#include "obs/trace.hh"

namespace tss
{

namespace
{

bool
keyLess(const DeferSink::Op &a, const DeferSink::Op &b)
{
    return a.first < b.first;
}

} // namespace

SimEngine::SimEngine(unsigned num_domains)
    : _numDomains(num_domains), fired((num_domains + 63) / 64, 0)
{
    TSS_ASSERT(num_domains >= 1, "engine needs at least one domain");
    q.setDeferSink(&sink);
}

void
SimEngine::setLookahead(Cycle l)
{
    TSS_ASSERT(l >= 1, "lookahead must be at least one cycle");
    _lookahead = l;
}

void
SimEngine::setTracer(obs::Tracer *t)
{
    TSS_ASSERT(!t || t->numDomains() == _numDomains,
               "tracer buffer count must match engine domains");
    tracer = t;
    q.setTraceBufs(t ? t->domainBuf(0) : nullptr);
}

std::size_t
SimEngine::applyBarrier(Cycle window_end)
{
    // The log is usually in key order already — events fire in cycle
    // order — so the sort is skipped when it is.
    auto &ops = sink.log();
    if (ops.empty())
        return 0;
    if (!std::is_sorted(ops.begin(), ops.end(), keyLess))
        std::sort(ops.begin(), ops.end(), keyLess);
    for (std::size_t i = 1; i < ops.size(); ++i) {
        TSS_ASSERT(!(ops[i - 1].first == ops[i].first),
                   "duplicate deferred-operation key (station %d seq "
                   "%llu at cycle %llu)",
                   (int)ops[i].first.station,
                   (unsigned long long)ops[i].first.seq,
                   (unsigned long long)ops[i].first.when);
    }
    TSS_ASSERT(ops.back().first.when <= window_end,
               "deferred operation recorded at cycle %llu, after the "
               "window end %llu",
               (unsigned long long)ops.back().first.when,
               (unsigned long long)window_end);

    // Deliveries computed below the window end (only same-station
    // self-messages can be) are floored at it. See
    // EventQueue::setWindowFloor.
    q.setWindowFloor(window_end + 1);
    for (auto &op : ops)
        op.second();
    q.setWindowFloor(0);

    std::size_t applied = ops.size();
    ops.clear();
    return applied;
}

std::uint64_t
SimEngine::run(std::uint64_t max_events)
{
    TSS_ASSERT(q.numDomains() <= _numDomains,
               "station tagged with domain %u of a %u-domain engine",
               q.numDomains() - 1, _numDomains);
    const std::uint64_t start = q.executed();
    for (Cycle t0; (t0 = q.nextTime()) != invalidCycle;) {
        // Drain the window. No event inserts into another domain:
        // cross-domain effects wait in the sink for the barrier.
        const Cycle window_end = t0 + _lookahead - 1;
        q.runUntil(window_end, fired.data());

        unsigned active = 0;
        for (std::uint64_t &word : fired) {
            active += static_cast<unsigned>(std::popcount(word));
            word = 0;
        }
        ++wstats.windows;
        wstats.occupancySum += active;
        wstats.maxOccupancy =
            std::max<std::uint64_t>(wstats.maxOccupancy, active);
        if (active == 1) {
            ++wstats.singleDomain;
            if (lastWindowSingle)
                ++wstats.fusedWindows;
        } else {
            ++wstats.multiDomain;
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

        if (q.executed() - start >= max_events)
            break; // deterministic overshoot: checked at barriers only
    }
    return q.executed() - start;
}

} // namespace tss
