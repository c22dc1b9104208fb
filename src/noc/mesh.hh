/**
 * @file
 * 2D mesh implementation of the topology layer (noc/topology.hh).
 * The global stations (hubs, frontend tiles, L2 banks, memory
 * controllers) occupy the cells of a near-square grid in placement
 * order; messages route dimension-ordered (X first, then Y), so
 * routing is deterministic and deadlock-free. Each grid edge is a
 * link with the shared lane-credit contention model; cores still
 * reach their hub over the local processor rings, which keeps mesh
 * results comparable to the ring (same local legs, different global
 * fabric).
 */

#ifndef TSS_NOC_MESH_HH
#define TSS_NOC_MESH_HH

#include <string>
#include <vector>

#include "noc/topology.hh"

namespace tss
{

/** Global stations on a 2D grid with XY routing. */
class MeshNetwork : public TopologyNetwork
{
  public:
    MeshNetwork(std::string name, EventQueue &eq, NocParams params);

    /// @name Grid geometry (for tests and reports).
    /// @{
    unsigned meshWidth() const { return width; }
    unsigned meshHeight() const { return height; }
    unsigned stopX(unsigned stop) const { return stop % width; }
    unsigned stopY(unsigned stop) const { return stop / width; }
    /// @}

  protected:
    Cycle routeGlobal(unsigned from, unsigned to, Cycle start,
                      Cycle ser) override;

    unsigned globalHops(unsigned from, unsigned to) const override;

    void visitGlobalLinks(
        const std::function<void(const Link &)> &fn) const override;

  private:
    Link &horizontalLink(unsigned x, unsigned y);
    Link &verticalLink(unsigned x, unsigned y);

    unsigned width = 1;
    unsigned height = 1;

    /// horizontal[y * (width-1) + x]: edge (x,y)-(x+1,y).
    std::vector<Link> horizontal;
    /// vertical[y * width + x]: edge (x,y)-(x,y+1).
    std::vector<Link> vertical;
};

} // namespace tss

#endif // TSS_NOC_MESH_HH
