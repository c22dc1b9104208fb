#include "topology.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace tss
{

namespace
{

/**
 * Shortest distance and direction around a ring of @p n stops (ties
 * break clockwise). The one direction rule of the local-ring legs and
 * the global ring.
 */
unsigned
ringDistance(unsigned from, unsigned to, unsigned n, bool &clockwise)
{
    unsigned fwd = (to + n - from) % n;
    unsigned bwd = n - fwd;
    if (fwd == 0) {
        clockwise = true;
        return 0;
    }
    clockwise = fwd <= bwd;
    return clockwise ? fwd : bwd;
}

} // namespace

const char *
toString(TopologyKind kind)
{
    switch (kind) {
      case TopologyKind::Fixed: return "fixed";
      case TopologyKind::Ring: return "ring";
      case TopologyKind::Mesh: return "mesh";
    }
    return "?";
}

TopologyKind
topologyFromString(const std::string &name)
{
    if (name == "fixed")
        return TopologyKind::Fixed;
    if (name == "ring")
        return TopologyKind::Ring;
    if (name == "mesh")
        return TopologyKind::Mesh;
    fatal("unknown topology '%s' (fixed|ring|mesh)", name.c_str());
}

TopologyNetwork::TopologyNetwork(std::string name, EventQueue &eq,
                                 TopologyKind topology_kind,
                                 NocParams params)
    : Network(std::move(name), eq), kind(topology_kind), _params(params)
{
    TSS_ASSERT(_params.coresPerRing > 0, "coresPerRing must be > 0");
    TSS_ASSERT(_params.lanesPerSegment >= 1 &&
                   _params.lanesPerSegment <= Link::maxLanes,
               "lanesPerSegment must be in [1, %u]", Link::maxLanes);
    unsigned rings = (_params.numCores + _params.coresPerRing - 1) /
        _params.coresPerRing;
    numNodes = _params.numCores + _params.numFrontendTiles +
        _params.numL2Banks + _params.numMemCtrls;

    place = makePlacement(_params.placement, rings,
                          _params.numFrontendTiles, _params.numL2Banks,
                          _params.numMemCtrls, _params.placementSeed);

    // Per processor ring: coresPerRing + 1 segments, then the global
    // fabric's links.
    globalBase = rings * (_params.coresPerRing + 1);
    unsigned global_links = 0;
    switch (kind) {
      case TopologyKind::Fixed:
        break;
      case TopologyKind::Ring:
        global_links = place.globalStops;
        break;
      case TopologyKind::Mesh: {
        unsigned stops = std::max(1u, place.globalStops);
        meshWidth = static_cast<unsigned>(
            std::ceil(std::sqrt(static_cast<double>(stops))));
        unsigned height = (stops + meshWidth - 1) / meshWidth;
        // Edge (x,y)-(x+1,y) is horizontal link y * (width-1) + x;
        // edge (x,y)-(x,y+1) is vertical link y * width + x.
        verticalBase = globalBase + (meshWidth - 1) * height;
        global_links = (meshWidth - 1) * height + meshWidth * (height - 1);
        break;
      }
    }
    links.resize(std::size_t(globalBase) + global_links);
    TSS_ASSERT(links.size() <= UINT16_MAX,
               "%zu links overflow the 16-bit route table", links.size());

    // Protocol messages are at most a few hundred bytes (a submit
    // packet of 32 B + 16 B per operand, batched decode descriptors).
    constexpr Bytes serTableBytes = 1024;
    serTable.resize(serTableBytes);
    for (Bytes b = 0; b < serTableBytes; ++b)
        serTable[b] = serializationFormula(b);
}

NodeId
TopologyNetwork::coreNode(unsigned core) const
{
    TSS_ASSERT(core < _params.numCores, "core %u out of range", core);
    return static_cast<NodeId>(core);
}

NodeId
TopologyNetwork::frontendNode(unsigned tile) const
{
    TSS_ASSERT(tile < _params.numFrontendTiles, "tile %u out of range",
               tile);
    return static_cast<NodeId>(_params.numCores + tile);
}

NodeId
TopologyNetwork::l2Node(unsigned bank) const
{
    TSS_ASSERT(bank < _params.numL2Banks, "bank %u out of range", bank);
    return static_cast<NodeId>(_params.numCores +
                               _params.numFrontendTiles + bank);
}

NodeId
TopologyNetwork::memCtrlNode(unsigned mc) const
{
    TSS_ASSERT(mc < _params.numMemCtrls, "mc %u out of range", mc);
    return static_cast<NodeId>(_params.numCores +
                               _params.numFrontendTiles +
                               _params.numL2Banks + mc);
}

Cycle
TopologyNetwork::reserveLane(Link &link, Cycle t, Cycle ser)
{
    auto best = std::min_element(link.laneFree.begin(),
                                 link.laneFree.begin() +
                                     _params.lanesPerSegment);
    Cycle begin = std::max(t, *best);
    *best = begin + ser;
    ++link.traversals;
    link.busyCycles += ser;
    link.waitCycles += begin - t;
    if (begin > t)
        obs::trace(obs::TraceEvent::NocLaneWait, t, 0, begin - t);
    return begin;
}

std::span<const std::uint16_t>
TopologyNetwork::path(NodeId src, NodeId dst)
{
    auto s = static_cast<unsigned>(src);
    auto d = static_cast<unsigned>(dst);
    TSS_ASSERT(s < numNodes && d < numNodes, "route %d -> %d out of range",
               src, dst);
    if (pathAt.empty()) {
        pathAt.assign(std::size_t(numNodes) * numNodes, 0);
        arena.assign(1, 0);
    }
    std::uint32_t &at = pathAt[std::size_t(s) * numNodes + d];
    if (at == 0)
        at = buildPath(s, d);
    return {arena.data() + at + 1, arena[at]};
}

std::uint32_t
TopologyNetwork::buildPath(unsigned src, unsigned dst)
{
    // Where a node sits: its processor ring (-1 for a station on the
    // global fabric), its stop on that ring, and its global stop (its
    // ring's hub, for a core).
    struct Stop
    {
        int ring;
        unsigned stop;
        unsigned globalStop;
    };
    auto locate = [this](unsigned n) -> Stop {
        if (n < _params.numCores) {
            unsigned ring = n / _params.coresPerRing;
            return {static_cast<int>(ring), n % _params.coresPerRing,
                    place.hubStop[ring]};
        }
        n -= _params.numCores;
        unsigned g;
        if (n < _params.numFrontendTiles) {
            g = place.frontendStop[n];
        } else if ((n -= _params.numFrontendTiles) < _params.numL2Banks) {
            g = place.l2Stop[n];
        } else {
            g = place.mcStop[n - _params.numL2Banks];
        }
        return {-1, g, g};
    };
    Stop from = locate(src);
    Stop to = locate(dst);

    TSS_ASSERT(arena.size() < UINT32_MAX, "route arena overflow");
    auto offset = static_cast<std::uint32_t>(arena.size());
    arena.push_back(0); // the route's length, set below

    unsigned local_stops = _params.coresPerRing + 1;
    unsigned hub = _params.coresPerRing; // hub stop index
    auto ring_base = [local_stops](int ring) {
        return static_cast<unsigned>(ring) * local_stops;
    };
    if (from.ring >= 0 && from.ring == to.ring) {
        // Same processor ring: purely local traversal.
        appendRingLeg(ring_base(from.ring), local_stops, from.stop,
                      to.stop);
    } else {
        if (from.ring >= 0)
            appendRingLeg(ring_base(from.ring), local_stops, from.stop,
                          hub);
        if (kind == TopologyKind::Mesh)
            appendMeshLeg(from.globalStop, to.globalStop);
        else
            appendRingLeg(globalBase, place.globalStops, from.globalStop,
                          to.globalStop);
        if (to.ring >= 0)
            appendRingLeg(ring_base(to.ring), local_stops, hub, to.stop);
    }
    arena[offset] = static_cast<std::uint16_t>(arena.size() - offset - 1);
    return offset;
}

void
TopologyNetwork::appendRingLeg(unsigned base, unsigned stops,
                               unsigned from, unsigned to)
{
    // A clockwise hop leaving `stop` crosses segment `stop`, a
    // counter-clockwise one crosses the segment behind it.
    bool clockwise = true;
    unsigned dist = ringDistance(from, to, stops, clockwise);
    unsigned stop = from;
    for (unsigned i = 0; i < dist; ++i) {
        unsigned seg;
        if (clockwise) {
            seg = stop;
            stop = stop + 1 == stops ? 0 : stop + 1;
        } else {
            seg = stop == 0 ? stops - 1 : stop - 1;
            stop = seg;
        }
        arena.push_back(static_cast<std::uint16_t>(base + seg));
    }
}

void
TopologyNetwork::appendMeshLeg(unsigned from, unsigned to)
{
    unsigned x = from % meshWidth, y = from / meshWidth;
    unsigned tx = to % meshWidth, ty = to / meshWidth;
    // Dimension-ordered: walk X to the target column, then Y.
    while (x != tx) {
        unsigned edge = x < tx ? x : x - 1;
        arena.push_back(static_cast<std::uint16_t>(
            globalBase + y * (meshWidth - 1) + edge));
        x = x < tx ? x + 1 : x - 1;
    }
    while (y != ty) {
        unsigned edge_y = y < ty ? y : y - 1;
        arena.push_back(static_cast<std::uint16_t>(
            verticalBase + edge_y * meshWidth + x));
        y = y < ty ? y + 1 : y - 1;
    }
}

Cycle
TopologyNetwork::serializationFormula(Bytes bytes) const
{
    auto ser = static_cast<Cycle>(
        (static_cast<double>(bytes) + _params.bytesPerCycle - 1) /
        _params.bytesPerCycle);
    return std::max<Cycle>(ser, 1);
}

void
TopologyNetwork::sendAt(Cycle inject, MessagePtr msg)
{
    msg->sentAt = inject;

    Cycle ser = serializationCycles(msg->bytes);

    obs::trace(obs::TraceEvent::NocSend, inject,
               (static_cast<std::uint32_t>(
                    static_cast<std::uint16_t>(msg->src))
                << 16) |
                   static_cast<std::uint16_t>(msg->dst),
               msg->bytes);
    Cycle t = inject + ser; // injection serialization
    if (kind == TopologyKind::Fixed) {
        t += _params.fixedLatency;
    } else {
        for (std::uint16_t link : path(msg->src, msg->dst))
            t = reserveLane(links[link], t, ser) + _params.hopLatency;
    }
    deliverAt(t, std::move(msg));
}

Cycle
TopologyNetwork::minDeliveryDelay() const
{
    // Injection serialization is clamped to >= 1 cycle (sendAt), and
    // any route between distinct stations crosses at least one link;
    // Fixed charges its end-to-end latency instead.
    return (kind == TopologyKind::Fixed ? _params.fixedLatency
                                        : _params.hopLatency) +
        1;
}

unsigned
TopologyNetwork::hopCount(NodeId src, NodeId dst)
{
    if (kind == TopologyKind::Fixed)
        return 0;
    return static_cast<unsigned>(path(src, dst).size());
}

double
TopologyNetwork::utilization(const Link &link, Cycle now) const
{
    double capacity = static_cast<double>(now) *
        static_cast<double>(_params.lanesPerSegment);
    return capacity > 0 ? static_cast<double>(link.busyCycles) / capacity
                        : 0.0;
}

LinkStats
TopologyNetwork::linkStats(Cycle now) const
{
    LinkStats stats;
    stats.links = links.size();
    for (const Link &link : links) {
        stats.traversals += link.traversals;
        stats.laneWaitCycles += link.waitCycles;
        stats.maxUtilization =
            std::max(stats.maxUtilization, utilization(link, now));
    }
    return stats;
}

std::vector<double>
TopologyNetwork::linkUtilizations(Cycle now) const
{
    std::vector<double> utils;
    utils.reserve(links.size());
    for (const Link &link : links)
        utils.push_back(utilization(link, now));
    return utils;
}

std::vector<std::uint64_t>
TopologyNetwork::linkTraversals() const
{
    std::vector<std::uint64_t> counts;
    counts.reserve(links.size());
    for (const Link &link : links)
        counts.push_back(link.traversals);
    return counts;
}

obs::HistogramSnapshot
TopologyNetwork::utilizationHistogram(Cycle now) const
{
    constexpr unsigned buckets = 10;
    obs::HistogramSnapshot h;
    h.lowerBounds.resize(buckets);
    h.counts.assign(buckets, 0);
    for (unsigned b = 0; b < buckets; ++b)
        h.lowerBounds[b] = b * 10;
    for (double u : linkUtilizations(now)) {
        auto b = static_cast<unsigned>(u * buckets);
        h.counts[std::min(b, buckets - 1)]++;
    }
    return h;
}

std::unique_ptr<TopologyNetwork>
makeTopology(TopologyKind kind, std::string name, EventQueue &eq,
             NocParams params)
{
    return std::make_unique<TopologyNetwork>(std::move(name), eq, kind,
                                             params);
}

} // namespace tss
