/**
 * @file
 * Recycling allocator for NoC messages. Every ProtoMsg used to be an
 * individually new-ed allocation that died at the receiving endpoint;
 * on the steady-state NoC path that was two global-allocator round
 * trips per hop. MessagePool buckets message storage by size class
 * and recycles it through intrusive free lists, so after warm-up the
 * send path performs no heap allocation at all. Message::operator
 * new/delete route through the pool, which keeps every existing
 * std::make_unique<XxxMsg>() call site pooled with no changes.
 */

#ifndef TSS_NOC_MESSAGE_POOL_HH
#define TSS_NOC_MESSAGE_POOL_HH

#include <cstddef>
#include <cstdint>

#include "sim/pool.hh"

namespace tss
{

/** Per-thread recycling pool for message storage. */
class MessagePool
{
  public:
    /** The calling thread's pool. */
    static MessagePool &
    local()
    {
        static thread_local MessagePool pool;
        return pool;
    }

    void *
    allocate(std::size_t bytes)
    {
        ++live;
        return chunks.allocate(bytes);
    }

    void
    release(void *p, std::size_t bytes) noexcept
    {
        --live;
        chunks.release(p, bytes);
    }

    /** Messages allocated and not yet destroyed (on this thread). */
    std::uint64_t liveMessages() const { return live; }

    /** Cumulative fresh/reused/released chunk counters. */
    const ChunkPool::Stats &stats() const { return chunks.stats(); }

  private:
    MessagePool() = default;

    ChunkPool chunks;
    std::uint64_t live = 0;
};

} // namespace tss

#endif // TSS_NOC_MESSAGE_POOL_HH
