/**
 * @file
 * The Network interface every module sends through: deferred
 * injection under the windowed engine, and the per-pair FIFO
 * delivery clamp every implementation shares (deliverAt). Two
 * implementations exist: TopologyNetwork (noc/topology.hh), the one
 * modeled fabric — ring, mesh or fixed latency over one link table
 * with memoised routes — and SimpleNetwork below, a station-free
 * fixed latency kept for protocol unit tests (a 0-byte message
 * arrives one cycle inside its minDeliveryDelay, which exercises the
 * window floor).
 */

#ifndef TSS_NOC_NETWORK_HH
#define TSS_NOC_NETWORK_HH

#include <vector>

#include "noc/message.hh"
#include "obs/trace.hh"
#include "sim/exec_context.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace tss
{

/**
 * A network delivers messages between attached endpoints after some
 * modeled delay, preserving per source->destination FIFO order.
 *
 * Under the windowed engine (sim/sim_engine.hh) the network is shared
 * global state: routing mutates lane reservations and the FIFO clamp.
 * send() therefore defers — it records the injection into the calling
 * event's DeferSink, and the actual routing (sendAt) runs at the
 * window barrier, in deterministic key order. With
 * no engine attached (execCtx.sink == nullptr) send() routes
 * immediately, the historical behavior.
 */
class Network : public SimObject
{
  public:
    using SimObject::SimObject;

    /** Attach @p ep as the receiver for node @p node. */
    void
    attach(NodeId node, Endpoint &ep)
    {
        port(node).endpoint = &ep;
    }

    /**
     * Inject @p msg; ownership passes to the network. Routes now, or
     * defers to the window barrier under the windowed engine.
     */
    void
    send(MessagePtr msg)
    {
        if (execCtx.sink) {
            execCtx.sink->record(
                execCtx.nextKey(),
                [this, inject = execCtx.when,
                 m = std::move(msg)]() mutable {
                    sendAt(inject, std::move(m));
                });
        } else {
            sendAt(curCycle(), std::move(msg));
        }
    }

    /**
     * Route @p msg as if injected at cycle @p inject. Only the window
     * barrier (deferred ops) and engine-less callers may invoke this
     * directly: it touches shared routing state.
     */
    virtual void sendAt(Cycle inject, MessagePtr msg) = 0;

    /**
     * Lower bound on inject-to-delivery delay between two *distinct*
     * stations; the engine's lookahead window length.
     */
    virtual Cycle minDeliveryDelay() const = 0;

    std::uint64_t messagesSent() const { return numMessages.value(); }
    const IntHistogram &latencyStat() const { return latencies; }

  protected:
    /**
     * Deliver @p msg at absolute @p when, clamped so that messages
     * between the same pair of nodes never reorder, and floored at
     * the window end (EventQueue::windowFloor; only same-station
     * self-messages can compute below it — see sim/sim_engine.hh).
     * The delivery event is scheduled on the network's queue,
     * stamped with the destination station (and so tagged with its
     * domain).
     */
    void
    deliverAt(Cycle when, MessagePtr msg)
    {
        auto dst_index = static_cast<std::size_t>(msg->dst);
        TSS_ASSERT(dst_index < ports.size() && ports[dst_index].endpoint,
                   "message to unattached node %d", msg->dst);
        Port &dst = ports[dst_index];
        EventQueue &q = eventQueue();
        if (when < q.windowFloor())
            when = q.windowFloor();

        TSS_ASSERT(msg->src >= 0, "message from invalid node %d",
                   msg->src);
        auto src_index = static_cast<std::size_t>(msg->src);
        if (src_index >= dst.lastFrom.size())
            dst.lastFrom.resize(src_index + 1, 0);
        Cycle &last = dst.lastFrom[src_index];
        if (when < last)
            when = last;
        last = when;

        ++numMessages;
        latencies.sample(when - msg->sentAt);
        obs::trace(obs::TraceEvent::NocDeliver, when,
                   (static_cast<std::uint32_t>(
                        static_cast<std::uint16_t>(msg->src))
                    << 16) |
                       static_cast<std::uint16_t>(msg->dst),
                   when - msg->sentAt);

        Endpoint *ep = dst.endpoint;
        NodeId dst_node = msg->dst;
        q.scheduleStation(when, dst_node,
                          [ep, m = std::move(msg)]() mutable {
                              ep->receive(std::move(m));
                          });
    }

  private:
    /** Per-node delivery state, indexed by NodeId. */
    struct Port
    {
        Endpoint *endpoint = nullptr;
        /// Per-source FIFO clamp: latest delivery cycle from each
        /// source node (indexed by NodeId, grown on first message).
        std::vector<Cycle> lastFrom;
    };

    Port &
    port(NodeId node)
    {
        TSS_ASSERT(node >= 0, "invalid node id %d", node);
        auto index = static_cast<std::size_t>(node);
        if (index >= ports.size())
            ports.resize(index + 1);
        return ports[index];
    }

    std::vector<Port> ports;
    Counter numMessages;
    IntHistogram latencies;
};

/**
 * Fixed per-hopless latency network: every message arrives
 * `latency + ceil(bytes/bandwidth)` cycles after injection. Useful
 * for unit tests and as an idealized-interconnect ablation.
 */
class SimpleNetwork : public Network
{
  public:
    SimpleNetwork(std::string name, EventQueue &eq, Cycle latency = 8,
                  double bytes_per_cycle = 16.0)
        : Network(std::move(name), eq), _latency(latency),
          bandwidth(bytes_per_cycle)
    {}

    void
    sendAt(Cycle inject, MessagePtr msg) override
    {
        msg->sentAt = inject;
        Cycle ser = static_cast<Cycle>(
            (static_cast<double>(msg->bytes) + bandwidth - 1) / bandwidth);
        deliverAt(inject + _latency + ser, std::move(msg));
    }

    Cycle minDeliveryDelay() const override { return _latency + 1; }

  private:
    Cycle _latency;
    double bandwidth;
};

} // namespace tss

#endif // TSS_NOC_NETWORK_HH
