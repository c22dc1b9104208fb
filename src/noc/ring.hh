/**
 * @file
 * The paper's interconnect: a segmented two-level ring. Each
 * processor ring connects 8 cores to a hub; a global ring connects
 * the hubs, the L2 banks, the memory controllers, and the task
 * superscalar frontend tiles. Links move 16 bytes/cycle and every
 * segment supports 4 concurrent connections (paper Table II).
 *
 * RingNetwork is the ring implementation of the topology layer
 * (noc/topology.hh): local processor-ring legs, placement and lane
 * accounting live in TopologyNetwork; this class contributes the
 * global ring's shortest-direction routing. With the Adjacent
 * placement its timing is bit-identical to the pre-topology-layer
 * RingNetwork (pinned by the golden stats in
 * tests/test_sharded_frontend.cc).
 */

#ifndef TSS_NOC_RING_HH
#define TSS_NOC_RING_HH

#include <string>
#include <vector>

#include "noc/topology.hh"

namespace tss
{

/**
 * Cycle-approximate two-level ring. Routing takes the shortest
 * direction around each ring; contention is modeled by per-segment
 * lane reservations (a message occupies one lane of each traversed
 * segment for its serialization time).
 */
class RingNetwork : public TopologyNetwork
{
  public:
    RingNetwork(std::string name, EventQueue &eq, NocParams params);

  protected:
    Cycle routeGlobal(unsigned from, unsigned to, Cycle start,
                      Cycle ser) override;

    unsigned globalHops(unsigned from, unsigned to) const override;

    void visitGlobalLinks(
        const std::function<void(const Link &)> &fn) const override;

  private:
    /// Global ring link segments, one per stop.
    std::vector<Link> globalSegments;
};

} // namespace tss

#endif // TSS_NOC_RING_HH
