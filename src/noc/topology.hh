/**
 * @file
 * The NoC topology layer. A TopologyNetwork is a Network whose
 * stations (worker/master cores, frontend tiles, L2 banks, memory
 * controllers) occupy *stops* of a modeled fabric:
 *
 *  - cores sit on local processor rings of `coresPerRing` stops plus
 *    a hub (the paper's two-level interconnect, Table II); the local
 *    legs are shared by every topology;
 *  - the global fabric connecting hubs, frontend tiles, L2 banks and
 *    memory controllers is selected by TopologyKind — the paper's
 *    global ring (shortest direction), a 2D mesh with XY routing, or
 *    the fixed-latency degenerate case;
 *  - which station occupies which global stop is a PlacementPolicy
 *    decision (noc/placement.hh), so slice distance is a modeled
 *    quantity rather than a hard-coded adjacency.
 *
 * Every topology is one class over one flat link table. The route
 * between two nodes is built once, on first use, as a list of link
 * indices in traversal order and memoised per (src, dst); sending a
 * message walks that list. Every traversed link charges hop latency
 * and reserves one of its `lanesPerSegment` lanes (the link's
 * credits) for the message's serialization time; waiting for a lane
 * is recorded as backpressure so contention is observable
 * (LinkStats).
 */

#ifndef TSS_NOC_TOPOLOGY_HH
#define TSS_NOC_TOPOLOGY_HH

#include <array>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "noc/network.hh"
#include "noc/placement.hh"
#include "obs/metrics.hh"

namespace tss
{

/** Which global fabric connects the stations. */
enum class TopologyKind : std::uint8_t
{
    Fixed, ///< distance-free fixed latency (idealized interconnect)
    Ring,  ///< the paper's segmented global ring
    Mesh,  ///< 2D mesh, dimension-ordered (XY) routing
};

const char *toString(TopologyKind kind);

/** Parse "fixed" / "ring" / "mesh"; calls fatal() otherwise. */
TopologyKind topologyFromString(const std::string &name);

/** Station counts and link parameters shared by all topologies. */
struct NocParams
{
    unsigned numCores = 256;
    unsigned coresPerRing = 8;
    unsigned numL2Banks = 32;
    unsigned numMemCtrls = 4;
    unsigned numFrontendTiles = 16;

    /** Cycles to traverse one link. */
    Cycle hopLatency = 1;

    /** Link bandwidth in bytes per cycle. */
    double bytesPerCycle = 16.0;

    /** Concurrent connections (lanes) per link. */
    unsigned lanesPerSegment = 4;

    /** End-to-end latency of the Fixed topology. */
    Cycle fixedLatency = 8;

    /** Station -> global stop assignment. */
    PlacementKind placement = PlacementKind::Adjacent;
    std::uint64_t placementSeed = 1;
};

/** Aggregated link contention counters (see TopologyNetwork). */
struct LinkStats
{
    std::uint64_t links = 0;        ///< links in the fabric
    std::uint64_t traversals = 0;   ///< lane reservations made
    Cycle laneWaitCycles = 0;       ///< backpressure: waits for a lane
    double maxUtilization = 0;      ///< busiest link's busy fraction
};

/**
 * Network over a placed topology. Station node-id mapping, placement,
 * routes, lane accounting and the per-pair FIFO delivery clamp
 * (Network::deliverAt) are the same code for every TopologyKind, so
 * no topology can reorder same-pair messages or diverge in how
 * contention is charged.
 */
class TopologyNetwork final : public Network
{
  public:
    TopologyNetwork(std::string name, EventQueue &eq, TopologyKind kind,
                    NocParams params);

    /// @name Node id lookup for the different station types.
    /// @{
    NodeId coreNode(unsigned core) const;
    NodeId frontendNode(unsigned tile) const;
    NodeId l2Node(unsigned bank) const;
    NodeId memCtrlNode(unsigned mc) const;
    /// @}

    void sendAt(Cycle inject, MessagePtr msg) override;

    /**
     * Minimum inject-to-delivery delay between distinct stations:
     * injection serialization (>= 1 cycle) plus at least one link
     * traversal, or the Fixed latency. The windowed engine's
     * lookahead.
     */
    Cycle minDeliveryDelay() const override;

    /** Links on the route from @p src to @p dst (0 on Fixed). */
    unsigned hopCount(NodeId src, NodeId dst);

    const NocParams &params() const { return _params; }
    const PlacementMap &placement() const { return place; }

    /** Aggregate link contention over [0, @p now]. */
    LinkStats linkStats(Cycle now) const;

    /**
     * Per-link lane utilization (busy lane-cycles / (now * lanes))
     * over [0, @p now], in link-table order: local processor-ring
     * segments first (ring 0's segments in stop order, then ring
     * 1's, ...), then the global fabric — the global ring's segments
     * in stop order, or the mesh's horizontal edges followed by its
     * vertical edges (row-major). Fixed has only the local segments.
     */
    std::vector<double> linkUtilizations(Cycle now) const;

    /** Per-link traversal counts, in linkUtilizations() order. */
    std::vector<std::uint64_t> linkTraversals() const;

    /**
     * The per-link utilization histogram over [0, @p now]: ten
     * 10%-wide buckets with explicit lower bounds (percent:
     * 0, 10, ..., 90; the last bucket is closed at 100%). Every
     * bucket is reported, including empty ones, so consumers never
     * have to guess the binning.
     */
    obs::HistogramSnapshot utilizationHistogram(Cycle now) const;

  private:
    /// One link: lane credits shared by both directions, plus
    /// contention counters.
    struct Link
    {
        /** Most lanes a link may model (NocParams::lanesPerSegment). */
        static constexpr unsigned maxLanes = 8;

        std::array<Cycle, maxLanes> laneFree{}; ///< busy-until per lane
        std::uint64_t traversals = 0;
        Cycle busyCycles = 0; ///< serialization reserved
        Cycle waitCycles = 0; ///< backpressure waiting for a lane
    };

    /** Injection serialization of a @p bytes message (>= 1 cycle). */
    Cycle
    serializationCycles(Bytes bytes) const
    {
        return bytes < serTable.size() ? serTable[bytes]
                                       : serializationFormula(bytes);
    }

    /** ceil(bytes / bytesPerCycle), at least one cycle. */
    Cycle serializationFormula(Bytes bytes) const;

    /**
     * Reserve the earliest-free lane of @p link from @p t for
     * @p ser cycles; returns when the message starts crossing.
     */
    Cycle reserveLane(Link &link, Cycle t, Cycle ser);

    /** Busy fraction of @p link's lanes over [0, @p now]. */
    double utilization(const Link &link, Cycle now) const;

    /**
     * The link indices from @p src to @p dst in traversal order,
     * built by buildPath() on the pair's first use.
     */
    std::span<const std::uint16_t> path(NodeId src, NodeId dst);

    /**
     * Append the route from node @p src to node @p dst to the arena:
     * local ring leg to the hub, the global fabric, the hub to the
     * destination's stop. Returns the route's arena offset.
     */
    std::uint32_t buildPath(unsigned src, unsigned dst);

    /**
     * Append the shortest-direction walk from stop @p from to stop
     * @p to around the ring whose @p stops segments start at link
     * @p base (segment i joins stop i to stop i + 1).
     */
    void appendRingLeg(unsigned base, unsigned stops, unsigned from,
                       unsigned to);

    /** Append the XY walk between two global stops of the mesh. */
    void appendMeshLeg(unsigned from, unsigned to);

    TopologyKind kind;
    NocParams _params;
    unsigned numNodes = 0;
    PlacementMap place;

    /// Mesh grid width (global stops fill the grid row-major).
    unsigned meshWidth = 1;
    /// First global-fabric link; the mesh's first vertical edge.
    unsigned globalBase = 0;
    unsigned verticalBase = 0;

    /// Every link of the fabric, in linkUtilizations() order.
    std::vector<Link> links;

    /// Route memo: arena offset of the (src, dst) route, indexed by
    /// src * numNodes + dst; 0 until the pair's first message (the
    /// table itself is allocated on first use).
    std::vector<std::uint32_t> pathAt;
    /// Routes, each a length followed by that many link indices;
    /// entry 0 is a placeholder so offset 0 can mean "not built".
    std::vector<std::uint16_t> arena;

    /// serializationFormula(b) for every b below the table size,
    /// which covers every protocol message (the formula's double
    /// division is the fallback for larger payloads).
    std::vector<Cycle> serTable;
};

/**
 * Build the topology selected by @p kind over @p params. The result
 * is attached to modules through the Network interface, so callers
 * other than SystemBuilder rarely need the concrete type.
 */
std::unique_ptr<TopologyNetwork> makeTopology(TopologyKind kind,
                                              std::string name,
                                              EventQueue &eq,
                                              NocParams params);

} // namespace tss

#endif // TSS_NOC_TOPOLOGY_HH
