/**
 * @file
 * Lock-free worker-pool substrate of the ParallelExecutor
 * (runtime/parallel_exec.cc): a Chase–Lev work-stealing deque and a
 * progressive idle backoff.
 */

#ifndef TSS_RUNTIME_WORK_DEQUE_HH
#define TSS_RUNTIME_WORK_DEQUE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "sim/logging.hh"

namespace tss
{

/**
 * Progressive backoff for idle loops: stay polite (yield) while work
 * is likely imminent, then sleep in growing steps so starved workers
 * stop contending with the productive ones (single-core machines and
 * TSan runs feel this the most). Reset on every success.
 */
class Backoff
{
  public:
    void
    pause()
    {
        if (failures < yieldThreshold) {
            ++failures;
            std::this_thread::yield();
            return;
        }
        auto step = std::min<std::uint32_t>(failures - yieldThreshold,
                                            maxExponent);
        ++failures;
        std::this_thread::sleep_for(
            std::chrono::microseconds(1u << step));
    }

    void reset() { failures = 0; }

  private:
    static constexpr std::uint32_t yieldThreshold = 64;
    static constexpr std::uint32_t maxExponent = 7; ///< <= 128 us

    std::uint32_t failures = 0;
};

/**
 * A Chase–Lev work-stealing deque (Le et al., "Correct and Efficient
 * Work-Stealing for Weak Memory Models", PPoPP 2013). The owner
 * pushes and pops at the bottom (LIFO, cache-hot); thieves steal from
 * the top (FIFO, oldest first). The ring is sized once to hold every
 * task of the run, so the grow path — the only allocating part of the
 * classic algorithm — is statically impossible here.
 */
class WorkDeque
{
  public:
    explicit WorkDeque(std::size_t min_capacity)
    {
        std::size_t cap = 1;
        while (cap < min_capacity + 1)
            cap <<= 1;
        slots = std::vector<std::atomic<std::uint32_t>>(cap);
        mask = cap - 1;
    }

    /** Owner only. The ring is pre-sized; overflow is a logic bug. */
    void
    push(std::uint32_t value)
    {
        std::int64_t b = bottom.load(std::memory_order_relaxed);
        std::int64_t t = top.load(std::memory_order_acquire);
        TSS_ASSERT(b - t <= static_cast<std::int64_t>(mask),
                   "work deque overflow");
        slots[static_cast<std::size_t>(b) & mask].store(
            value, std::memory_order_relaxed);
        // The paper publishes with fence(release) + relaxed store;
        // a release store is at least as strong (and free on x86),
        // and unlike the fence it is modeled by ThreadSanitizer —
        // with the fence form, TSan cannot see the happens-before
        // edge from the enabling task to its stolen successor and
        // (rarely, steal-timing-dependent) reports the successor's
        // first rename-buffer access as a race.
        bottom.store(b + 1, std::memory_order_release);
    }

    /** Owner only: take the most recently pushed task. */
    bool
    pop(std::uint32_t &value)
    {
        std::int64_t b = bottom.load(std::memory_order_relaxed) - 1;
        bottom.store(b, std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        std::int64_t t = top.load(std::memory_order_relaxed);
        if (t > b) {
            // Deque was already empty: restore.
            bottom.store(b + 1, std::memory_order_relaxed);
            return false;
        }
        value = slots[static_cast<std::size_t>(b) & mask].load(
            std::memory_order_relaxed);
        if (t == b) {
            // Last element: race against thieves for it.
            bool won = top.compare_exchange_strong(
                t, t + 1, std::memory_order_seq_cst,
                std::memory_order_relaxed);
            bottom.store(b + 1, std::memory_order_relaxed);
            return won;
        }
        return true;
    }

    /** Any thread: take the oldest task. */
    bool
    steal(std::uint32_t &value)
    {
        std::int64_t t = top.load(std::memory_order_acquire);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        std::int64_t b = bottom.load(std::memory_order_acquire);
        if (t >= b)
            return false;
        value = slots[static_cast<std::size_t>(t) & mask].load(
            std::memory_order_relaxed);
        return top.compare_exchange_strong(t, t + 1,
                                           std::memory_order_seq_cst,
                                           std::memory_order_relaxed);
    }

  private:
    std::vector<std::atomic<std::uint32_t>> slots;
    std::size_t mask = 0;
    alignas(64) std::atomic<std::int64_t> top{0};
    alignas(64) std::atomic<std::int64_t> bottom{0};
};

} // namespace tss

#endif // TSS_RUNTIME_WORK_DEQUE_HH
