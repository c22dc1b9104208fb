/**
 * @file
 * The external DMA engine that copies renamed operand buffers back to
 * their original object addresses when a final renamed version dies
 * (paper section IV, OVT description).
 */

#ifndef TSS_MEM_DMA_ENGINE_HH
#define TSS_MEM_DMA_ENGINE_HH

#include <deque>
#include <functional>

#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace tss
{

/**
 * A single-channel DMA engine: transfers are serviced in order at a
 * fixed bandwidth with a fixed startup latency. Completion callbacks
 * fire in simulated time.
 */
class DmaEngine : public SimObject
{
  public:
    using Callback = std::function<void()>;

    /**
     * @param bytes_per_cycle Sustained copy bandwidth.
     * @param startup Latency added to every transfer.
     */
    DmaEngine(std::string name, EventQueue &eq,
              double bytes_per_cycle = 16.0, Cycle startup = 200)
        : SimObject(std::move(name), eq),
          bandwidth(bytes_per_cycle), startupLatency(startup)
    {}

    /**
     * Enqueue a copy of @p bytes; @p done fires at completion. The
     * channel is shared global state, so under the windowed engine
     * the reservation is deferred to the window barrier (like
     * Network::send); the completion callback is stamped with the
     * requesting station, so it fires in that station's domain.
     */
    void
    transfer(Bytes bytes, Callback done = nullptr)
    {
        if (execCtx.sink) {
            execCtx.sink->record(
                execCtx.nextKey(),
                [this, bytes, req = execCtx.when,
                 station = execCtx.station,
                 cb = std::move(done)]() mutable {
                    applyTransfer(bytes, std::move(cb), req, station);
                });
        } else {
            applyTransfer(bytes, std::move(done), curCycle(),
                          EventQueue::noStation);
        }
    }

    std::uint64_t numTransfers() const { return transfers.value(); }
    std::uint64_t totalBytes() const { return bytesCopied.value(); }
    Cycle busyUntil() const { return channelFreeAt; }

  private:
    void
    applyTransfer(Bytes bytes, Callback done, Cycle req,
                  std::int32_t station)
    {
        Cycle duration = startupLatency +
            static_cast<Cycle>(static_cast<double>(bytes) / bandwidth);
        Cycle start = std::max(req, channelFreeAt);
        channelFreeAt = start + duration;
        ++transfers;
        bytesCopied += bytes;
        if (done) {
            EventQueue &q = eventQueue();
            Cycle at = std::max(channelFreeAt, q.windowFloor());
            q.scheduleStation(at, station,
                              [cb = std::move(done)] { cb(); });
        }
    }

    double bandwidth;
    Cycle startupLatency;
    Cycle channelFreeAt = 0;
    Counter transfers;
    Counter bytesCopied;
};

} // namespace tss

#endif // TSS_MEM_DMA_ENGINE_HH
