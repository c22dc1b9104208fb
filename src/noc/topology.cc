#include "topology.hh"

#include <algorithm>

#include "noc/mesh.hh"
#include "noc/ring.hh"

namespace tss
{

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

unsigned
TopologyNetwork::ringDistance(unsigned from, unsigned to, unsigned n,
                              bool &clockwise)
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

TopologyNetwork::TopologyNetwork(std::string name, EventQueue &eq,
                                 NocParams params)
    : Network(std::move(name), eq), _params(params)
{
    TSS_ASSERT(_params.coresPerRing > 0, "coresPerRing must be > 0");
    numRings = (_params.numCores + _params.coresPerRing - 1) /
        _params.coresPerRing;

    place = makePlacement(_params.placement, numRings,
                          _params.numFrontendTiles, _params.numL2Banks,
                          _params.numMemCtrls, _params.placementSeed);

    TSS_ASSERT(_params.lanesPerSegment >= 1 &&
                   _params.lanesPerSegment <= Link::maxLanes,
               "lanesPerSegment must be in [1, %u]", Link::maxLanes);
    localSegments.resize(numRings);
    for (auto &segments : localSegments)
        segments.assign(_params.coresPerRing + 1, makeLink());

    unsigned nodes = _params.numCores + _params.numFrontendTiles +
        _params.numL2Banks + _params.numMemCtrls;
    locations.reserve(nodes);
    for (unsigned n = 0; n < nodes; ++n)
        locations.push_back(computeLocation(n));

    // Protocol messages are at most a few hundred bytes (a submit
    // packet of 32 B + 16 B per operand, batched decode descriptors).
    constexpr Bytes serTableBytes = 1024;
    serTable.resize(serTableBytes);
    for (Bytes b = 0; b < serTableBytes; ++b)
        serTable[b] = serializationFormula(b);
}

TopologyNetwork::Link
TopologyNetwork::makeLink() const
{
    Link link;
    link.lanes = _params.lanesPerSegment;
    return link;
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

TopologyNetwork::Location
TopologyNetwork::locate(NodeId node) const
{
    auto index = static_cast<std::size_t>(node);
    TSS_ASSERT(index < locations.size(), "node %d out of range", node);
    return locations[index];
}

TopologyNetwork::Location
TopologyNetwork::computeLocation(unsigned n) const
{
    if (n < _params.numCores) {
        unsigned ring = n / _params.coresPerRing;
        unsigned stop = n % _params.coresPerRing;
        return Location{static_cast<int>(ring), stop,
                        place.hubStop[ring]};
    }
    n -= _params.numCores;
    if (n < _params.numFrontendTiles) {
        return Location{-1, place.frontendStop[n],
                        place.frontendStop[n]};
    }
    n -= _params.numFrontendTiles;
    if (n < _params.numL2Banks)
        return Location{-1, place.l2Stop[n], place.l2Stop[n]};
    n -= _params.numL2Banks;
    return Location{-1, place.mcStop[n], place.mcStop[n]};
}

Cycle
TopologyNetwork::reserveLane(Link &link, Cycle t, Cycle ser)
{
    auto best = std::min_element(link.laneFree.begin(),
                                 link.laneFree.begin() + link.lanes);
    Cycle begin = std::max(t, *best);
    *best = begin + ser;
    ++link.traversals;
    link.busyCycles += ser;
    link.waitCycles += begin - t;
    if (begin > t)
        obs::trace(obs::TraceEvent::NocLaneWait, t, 0, begin - t);
    return begin;
}

Cycle
TopologyNetwork::traverseLocalRing(unsigned ring, unsigned from,
                                   unsigned to, Cycle start, Cycle ser)
{
    auto &segments = localSegments[ring];
    auto stops = static_cast<unsigned>(segments.size());
    bool clockwise = true;
    unsigned dist = ringDistance(from, to, stops, clockwise);

    return walkRing(segments.data(), stops, from, dist, clockwise,
                    start, ser);
}

Cycle
TopologyNetwork::walkRing(Link *segments, unsigned stops, unsigned from,
                          unsigned dist, bool clockwise, Cycle start,
                          Cycle ser)
{
    // Segment i joins stop i to stop i + 1: a clockwise hop leaving
    // `stop` crosses segment `stop`, a counter-clockwise one crosses
    // the segment behind it.
    Cycle t = start;
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
        t = reserveLane(segments[seg], t, ser) + _params.hopLatency;
    }
    return t;
}

Cycle
TopologyNetwork::route(NodeId src_node, NodeId dst_node, Cycle inject,
                       Cycle ser)
{
    Location src = locate(src_node);
    Location dst = locate(dst_node);

    Cycle t = inject + ser; // injection serialization

    if (src.localRing >= 0 && src.localRing == dst.localRing) {
        // Same processor ring: purely local traversal.
        return traverseLocalRing(static_cast<unsigned>(src.localRing),
                                 src.stop, dst.stop, t, ser);
    }

    unsigned hub_pos = _params.coresPerRing; // hub stop index
    if (src.localRing >= 0) {
        t = traverseLocalRing(static_cast<unsigned>(src.localRing),
                              src.stop, hub_pos, t, ser);
    }
    unsigned gfrom = src.localRing >= 0 ? src.hubStop : src.stop;
    unsigned gto = dst.localRing >= 0 ? dst.hubStop : dst.stop;
    t = routeGlobal(gfrom, gto, t, ser);
    if (dst.localRing >= 0) {
        t = traverseLocalRing(static_cast<unsigned>(dst.localRing),
                              hub_pos, dst.stop, t, ser);
    }
    return t;
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
    Cycle t = route(msg->src, msg->dst, inject, ser);
    deliverAt(t, std::move(msg));
}

Cycle
TopologyNetwork::minDeliveryDelay() const
{
    // Injection serialization is clamped to >= 1 cycle (sendAt), and
    // any route between distinct stations crosses at least one link.
    return _params.hopLatency + 1;
}

unsigned
TopologyNetwork::hopCount(NodeId src_node, NodeId dst_node) const
{
    Location src = locate(src_node);
    Location dst = locate(dst_node);
    bool cw = true;
    unsigned count = 0;
    unsigned local_stops = _params.coresPerRing + 1;
    unsigned hub_pos = _params.coresPerRing;

    if (src.localRing >= 0 && src.localRing == dst.localRing)
        return ringDistance(src.stop, dst.stop, local_stops, cw);

    if (src.localRing >= 0)
        count += ringDistance(src.stop, hub_pos, local_stops, cw);
    unsigned gfrom = src.localRing >= 0 ? src.hubStop : src.stop;
    unsigned gto = dst.localRing >= 0 ? dst.hubStop : dst.stop;
    count += globalHops(gfrom, gto);
    if (dst.localRing >= 0)
        count += ringDistance(hub_pos, dst.stop, local_stops, cw);
    return count;
}

LinkStats
TopologyNetwork::linkStats(Cycle now) const
{
    LinkStats stats;
    auto visit = [&](const Link &link) {
        ++stats.links;
        stats.traversals += link.traversals;
        stats.laneWaitCycles += link.waitCycles;
        if (now > 0 && link.lanes > 0) {
            double util = static_cast<double>(link.busyCycles) /
                (static_cast<double>(now) *
                 static_cast<double>(link.lanes));
            stats.maxUtilization = std::max(stats.maxUtilization, util);
        }
    };
    for (const auto &segments : localSegments)
        for (const auto &link : segments)
            visit(link);
    visitGlobalLinks(visit);
    return stats;
}

std::vector<double>
TopologyNetwork::linkUtilizations(Cycle now) const
{
    std::vector<double> utils;
    auto visit = [&](const Link &link) {
        double capacity = static_cast<double>(now) *
            static_cast<double>(link.lanes);
        utils.push_back(capacity > 0
                            ? static_cast<double>(link.busyCycles) /
                                  capacity
                            : 0.0);
    };
    for (const auto &segments : localSegments)
        for (const auto &link : segments)
            visit(link);
    visitGlobalLinks(visit);
    return utils;
}

std::vector<std::uint64_t>
TopologyNetwork::linkTraversals() const
{
    std::vector<std::uint64_t> counts;
    auto visit = [&](const Link &link) {
        counts.push_back(link.traversals);
    };
    for (const auto &segments : localSegments)
        for (const auto &link : segments)
            visit(link);
    visitGlobalLinks(visit);
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
    switch (kind) {
      case TopologyKind::Fixed:
        return std::make_unique<FixedNetwork>(std::move(name), eq,
                                              params);
      case TopologyKind::Ring:
        return std::make_unique<RingNetwork>(std::move(name), eq,
                                             params);
      case TopologyKind::Mesh:
        return std::make_unique<MeshNetwork>(std::move(name), eq,
                                             params);
    }
    fatal("unknown topology kind %d", static_cast<int>(kind));
}

} // namespace tss
