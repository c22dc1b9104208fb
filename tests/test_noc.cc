/**
 * @file
 * Unit tests for the NoC topology layer: node lookup, hop counting,
 * delivery, per-pair FIFO ordering and contention on the two-level
 * ring, the 2D mesh, and the fixed-latency degenerate topology, plus
 * the station placement policies.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "noc/mesh.hh"
#include "noc/network.hh"
#include "noc/placement.hh"
#include "noc/ring.hh"
#include "noc/topology.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/stats.hh"

namespace tss
{
namespace
{

/** Endpoint recording delivery times. */
class Sink : public Endpoint
{
  public:
    explicit Sink(EventQueue &queue) : eq(queue) {}

    void
    receive(MessagePtr msg) override
    {
        arrivals.push_back(eq.now());
        sources.push_back(msg->src);
    }

    EventQueue &eq;
    std::vector<Cycle> arrivals;
    std::vector<NodeId> sources;
};

RingParams
smallRing()
{
    RingParams p;
    p.numCores = 32;
    p.coresPerRing = 8;
    p.numL2Banks = 8;
    p.numMemCtrls = 2;
    p.numFrontendTiles = 4;
    return p;
}

TEST(RingTopology, NodeIdsAreDistinct)
{
    EventQueue eq;
    RingNetwork net("noc", eq, smallRing());
    std::vector<NodeId> all;
    for (unsigned i = 0; i < 32; ++i)
        all.push_back(net.coreNode(i));
    for (unsigned i = 0; i < 4; ++i)
        all.push_back(net.frontendNode(i));
    for (unsigned i = 0; i < 8; ++i)
        all.push_back(net.l2Node(i));
    for (unsigned i = 0; i < 2; ++i)
        all.push_back(net.memCtrlNode(i));
    std::sort(all.begin(), all.end());
    EXPECT_TRUE(std::adjacent_find(all.begin(), all.end()) ==
                all.end());
}

TEST(RingTopology, HopCounts)
{
    EventQueue eq;
    RingNetwork net("noc", eq, smallRing());
    // Same node: zero hops.
    EXPECT_EQ(net.hopCount(net.coreNode(0), net.coreNode(0)), 0u);
    // Neighbours on the same local ring: one hop.
    EXPECT_EQ(net.hopCount(net.coreNode(0), net.coreNode(1)), 1u);
    // Same ring, opposite side: shortest direction <= stops/2.
    EXPECT_LE(net.hopCount(net.coreNode(0), net.coreNode(4)), 5u);
    // Cross-ring paths go through both hubs.
    unsigned cross =
        net.hopCount(net.coreNode(0), net.coreNode(31));
    EXPECT_GT(cross, 2u);
    // Core to frontend: local ring to hub, hub to tile.
    EXPECT_GT(net.hopCount(net.coreNode(5), net.frontendNode(0)), 0u);
}

TEST(RingNetwork, DeliversWithLatency)
{
    EventQueue eq;
    RingNetwork net("noc", eq, smallRing());
    Sink sink(eq);
    net.attach(net.frontendNode(0), sink);

    auto msg = std::make_unique<Message>(net.coreNode(3),
                                         net.frontendNode(0), 16);
    net.send(std::move(msg));
    eq.run();
    ASSERT_EQ(sink.arrivals.size(), 1u);
    EXPECT_GT(sink.arrivals[0], 0u);
    EXPECT_EQ(net.messagesSent(), 1u);
}

TEST(RingNetwork, PerPairFifo)
{
    EventQueue eq;
    RingNetwork net("noc", eq, smallRing());
    Sink sink(eq);
    net.attach(net.frontendNode(1), sink);

    // A large message followed by small ones; arrivals must stay in
    // send order despite different serialization times.
    for (int i = 0; i < 20; ++i) {
        Bytes size = i == 0 ? 512 : 8;
        eq.schedule(i, [&net, size, i] {
            auto msg = std::make_unique<Message>(0, 0, size);
            msg->src = net.coreNode(2);
            msg->dst = net.frontendNode(1);
            msg->bytes = size;
            net.send(std::move(msg));
        });
    }
    eq.run();
    ASSERT_EQ(sink.arrivals.size(), 20u);
    for (std::size_t i = 1; i < sink.arrivals.size(); ++i)
        EXPECT_GE(sink.arrivals[i], sink.arrivals[i - 1]);
}

TEST(RingNetwork, TwoHopPatternChargesExactlyTwoLinks)
{
    // Known traffic pattern: core 0 -> core 2 sits on local ring 0,
    // stops 0 -> 2 clockwise — exactly two ring segments (0 and 1).
    // Five spaced-out 16-byte messages (ser = 1 cycle each) must
    // charge those two links five one-cycle reservations apiece and
    // leave every other link in the fabric untouched.
    EventQueue eq;
    RingNetwork net("noc", eq, smallRing());
    Sink sink(eq);
    net.attach(net.coreNode(2), sink);
    ASSERT_EQ(net.hopCount(net.coreNode(0), net.coreNode(2)), 2u);

    constexpr unsigned sends = 5;
    for (unsigned i = 0; i < sends; ++i) {
        eq.schedule(i * 10, [&net] {
            auto msg = std::make_unique<Message>(net.coreNode(0),
                                                 net.coreNode(2), 16);
            net.send(std::move(msg));
        });
    }
    eq.run();
    ASSERT_EQ(sink.arrivals.size(), sends);

    std::vector<std::uint64_t> traversals = net.linkTraversals();
    ASSERT_GT(traversals.size(), 2u);
    EXPECT_EQ(traversals[0], sends); // ring 0, segment 0
    EXPECT_EQ(traversals[1], sends); // ring 0, segment 1
    for (std::size_t i = 2; i < traversals.size(); ++i)
        EXPECT_EQ(traversals[i], 0u) << "link " << i;

    Cycle now = eq.now();
    std::vector<double> utils = net.linkUtilizations(now);
    ASSERT_EQ(utils.size(), traversals.size());
    double lanes = smallRing().lanesPerSegment;
    double expected =
        static_cast<double>(sends) / (static_cast<double>(now) * lanes);
    EXPECT_NEAR(utils[0], expected, 1e-12);
    EXPECT_NEAR(utils[1], expected, 1e-12);
    for (std::size_t i = 2; i < utils.size(); ++i)
        EXPECT_EQ(utils[i], 0.0) << "link " << i;

    // Everything is under 10% busy, so the histogram must put every
    // link of the fabric in the first bucket.
    obs::HistogramSnapshot hist = net.utilizationHistogram(now);
    ASSERT_EQ(hist.counts.size(), 10u);
    EXPECT_EQ(hist.counts[0], utils.size());
    EXPECT_EQ(hist.totalCount(), utils.size());
}

TEST(RingNetwork, SaturatedLinkLandsInTopHistogramBucket)
{
    // Back-to-back neighbour traffic keeps segment 0 busy nearly the
    // whole run on one lane. With lanesPerSegment = 1 its utilization
    // approaches 1.0, which must land in the closed top bucket
    // [90%, 100%] while idle links stay in [0%, 10%).
    EventQueue eq;
    RingParams p = smallRing();
    p.lanesPerSegment = 1;
    RingNetwork net("noc", eq, p);
    Sink sink(eq);
    net.attach(net.coreNode(1), sink);

    constexpr unsigned sends = 64;
    for (unsigned i = 0; i < sends; ++i) {
        auto msg = std::make_unique<Message>(net.coreNode(0),
                                             net.coreNode(1), 256);
        net.send(std::move(msg));
    }
    eq.run();
    ASSERT_EQ(sink.arrivals.size(), sends);

    std::vector<double> utils = net.linkUtilizations(eq.now());
    EXPECT_GT(utils[0], 0.9);
    obs::HistogramSnapshot hist = net.utilizationHistogram(eq.now());
    ASSERT_EQ(hist.counts.size(), 10u);
    EXPECT_EQ(hist.lowerBounds.back(), 90u);
    EXPECT_EQ(hist.counts.back(), 1u);
    EXPECT_EQ(hist.counts.front(), utils.size() - 1);
}

TEST(RingNetwork, ContentionDelaysTraffic)
{
    EventQueue eq;
    RingNetwork net("noc", eq, smallRing());
    Sink sink(eq);
    net.attach(net.l2Node(0), sink);

    // Single probe.
    auto probe = std::make_unique<Message>(net.coreNode(0),
                                           net.l2Node(0), 64);
    net.send(std::move(probe));
    eq.run();
    Cycle uncontended = sink.arrivals[0];

    // Same probe while 64 big messages hammer the same path.
    EventQueue eq2;
    RingNetwork net2("noc", eq2, smallRing());
    Sink sink2(eq2);
    Sink other(eq2);
    net2.attach(net2.l2Node(0), sink2);
    net2.attach(net2.l2Node(1), other);
    for (int i = 0; i < 64; ++i) {
        auto noise = std::make_unique<Message>(net2.coreNode(1),
                                               net2.l2Node(1), 1024);
        net2.send(std::move(noise));
    }
    auto probe2 = std::make_unique<Message>(net2.coreNode(0),
                                            net2.l2Node(0), 64);
    net2.send(std::move(probe2));
    eq2.run();
    EXPECT_GT(sink2.arrivals[0], uncontended);
}

TEST(RingNetwork, LargeMessagesTakeLonger)
{
    EventQueue eq;
    RingNetwork net("noc", eq, smallRing());
    Sink sink(eq);
    net.attach(net.memCtrlNode(0), sink);

    auto small = std::make_unique<Message>(net.coreNode(0),
                                           net.memCtrlNode(0), 16);
    net.send(std::move(small));
    eq.run();
    Cycle small_t = sink.arrivals[0];

    EventQueue eq2;
    RingNetwork net2("noc", eq2, smallRing());
    Sink sink2(eq2);
    net2.attach(net2.memCtrlNode(0), sink2);
    auto big = std::make_unique<Message>(net2.coreNode(0),
                                         net2.memCtrlNode(0), 4096);
    net2.send(std::move(big));
    eq2.run();
    EXPECT_GT(sink2.arrivals[0], small_t);
}

TEST(SimpleNetwork, ExactLatency)
{
    EventQueue eq;
    SimpleNetwork net("simple", eq, 10, 16.0);
    Sink sink(eq);
    net.attach(42, sink);
    auto msg = std::make_unique<Message>(7, 42, 32);
    net.send(std::move(msg));
    eq.run();
    ASSERT_EQ(sink.arrivals.size(), 1u);
    EXPECT_EQ(sink.arrivals[0], 12u); // 10 + ceil(32/16)
}

TEST(RingNetwork, ManyCoreConfigurationWorks)
{
    EventQueue eq;
    RingParams p;
    p.numCores = 257; // 256 workers + master
    p.numFrontendTiles = 16;
    RingNetwork net("noc", eq, p);
    Sink sink(eq);
    net.attach(net.frontendNode(15), sink);
    auto msg = std::make_unique<Message>(net.coreNode(256),
                                         net.frontendNode(15), 64);
    net.send(std::move(msg));
    eq.run();
    EXPECT_EQ(sink.arrivals.size(), 1u);
}

// ---------------------------------------------------------- placement

TEST(Placement, AdjacentReproducesHistoricalLayout)
{
    // Hubs first, then the frontend tiles as one block, then L2
    // banks, then memory controllers — the layout the pre-topology
    // RingNetwork hard-coded (and the golden stats pin).
    PlacementMap map =
        makePlacement(PlacementKind::Adjacent, 4, 3, 8, 2, 1);
    EXPECT_EQ(map.globalStops, 17u);
    for (unsigned h = 0; h < 4; ++h)
        EXPECT_EQ(map.hubStop[h], h);
    for (unsigned f = 0; f < 3; ++f)
        EXPECT_EQ(map.frontendStop[f], 4 + f);
    for (unsigned b = 0; b < 8; ++b)
        EXPECT_EQ(map.l2Stop[b], 7 + b);
    for (unsigned m = 0; m < 2; ++m)
        EXPECT_EQ(map.mcStop[m], 15 + m);
}

/** Every station occupies exactly one stop, all stops covered. */
void
expectPermutation(const PlacementMap &map)
{
    std::vector<unsigned> stops;
    for (unsigned s : map.hubStop)
        stops.push_back(s);
    for (unsigned s : map.frontendStop)
        stops.push_back(s);
    for (unsigned s : map.l2Stop)
        stops.push_back(s);
    for (unsigned s : map.mcStop)
        stops.push_back(s);
    ASSERT_EQ(stops.size(), map.globalStops);
    std::sort(stops.begin(), stops.end());
    for (unsigned i = 0; i < stops.size(); ++i)
        EXPECT_EQ(stops[i], i);
}

TEST(Placement, SpreadDispersesFrontendTiles)
{
    PlacementMap map =
        makePlacement(PlacementKind::Spread, 8, 12, 16, 4, 1);
    expectPermutation(map);

    // Frontend tiles keep their relative order but no longer form
    // one block: consecutive tiles are separated by other stations.
    std::vector<unsigned> tiles = map.frontendStop;
    EXPECT_TRUE(std::is_sorted(tiles.begin(), tiles.end()));
    unsigned adjacent_pairs = 0;
    for (std::size_t i = 1; i < tiles.size(); ++i)
        adjacent_pairs += tiles[i] == tiles[i - 1] + 1 ? 1 : 0;
    EXPECT_LT(adjacent_pairs, tiles.size() / 2)
        << "spread placement left the tiles mostly contiguous";
}

TEST(Placement, RandomIsASeededPermutation)
{
    PlacementMap a =
        makePlacement(PlacementKind::Random, 8, 12, 16, 4, 7);
    PlacementMap b =
        makePlacement(PlacementKind::Random, 8, 12, 16, 4, 7);
    PlacementMap c =
        makePlacement(PlacementKind::Random, 8, 12, 16, 4, 8);
    expectPermutation(a);
    expectPermutation(c);
    EXPECT_EQ(a.frontendStop, b.frontendStop) << "same seed differs";
    EXPECT_NE(a.frontendStop, c.frontendStop) << "seed ignored";
}

TEST(Placement, ParseRoundTrips)
{
    for (PlacementKind k :
         {PlacementKind::Adjacent, PlacementKind::Spread,
          PlacementKind::Random})
        EXPECT_EQ(placementFromString(toString(k)), k);
    for (TopologyKind k : {TopologyKind::Fixed, TopologyKind::Ring,
                           TopologyKind::Mesh})
        EXPECT_EQ(topologyFromString(toString(k)), k);
}

// --------------------------------------------------------------- mesh

TEST(MeshNetwork, GridGeometryAndHops)
{
    EventQueue eq;
    MeshNetwork net("mesh", eq, smallRing());
    // 4 rings -> 4 hubs; 4 + 4 + 8 + 2 = 18 stations -> 5x4 grid.
    EXPECT_EQ(net.meshWidth(), 5u);
    EXPECT_GE(net.meshWidth() * net.meshHeight(), 18u);

    // Global stations route XY: hop count is the Manhattan distance.
    const PlacementMap &place = net.placement();
    unsigned f0 = place.frontendStop[0];
    unsigned l7 = place.l2Stop[7];
    unsigned dx = net.stopX(f0) > net.stopX(l7)
        ? net.stopX(f0) - net.stopX(l7)
        : net.stopX(l7) - net.stopX(f0);
    unsigned dy = net.stopY(f0) > net.stopY(l7)
        ? net.stopY(f0) - net.stopY(l7)
        : net.stopY(l7) - net.stopY(f0);
    EXPECT_EQ(net.hopCount(net.frontendNode(0), net.l2Node(7)),
              dx + dy);

    // Core legs still ride the local processor rings.
    EXPECT_GT(net.hopCount(net.coreNode(0), net.frontendNode(0)), 0u);
    EXPECT_EQ(net.hopCount(net.coreNode(0), net.coreNode(1)), 1u);
}

TEST(MeshNetwork, DeliversAndRecordsContention)
{
    EventQueue eq;
    MeshNetwork net("mesh", eq, smallRing());
    Sink sink(eq);
    net.attach(net.l2Node(0), sink);
    for (int i = 0; i < 64; ++i) {
        auto msg = std::make_unique<Message>(net.coreNode(1),
                                             net.l2Node(0), 1024);
        net.send(std::move(msg));
    }
    eq.run();
    EXPECT_EQ(sink.arrivals.size(), 64u);
    LinkStats links = net.linkStats(eq.now());
    EXPECT_GT(links.traversals, 0u);
    EXPECT_GT(links.laneWaitCycles, 0u)
        << "64 large same-path messages should contend for lanes";
    EXPECT_GT(links.maxUtilization, 0.0);
}

TEST(NocLatency, HistogramMatchesSortedSamples)
{
    // Integer latencies on both sides of the dense range: the exact
    // histogram must answer what sorting every sample answers.
    Rng rng(3);
    IntHistogram hist;
    Distribution sorted;
    EXPECT_EQ(hist.mean(), 0.0);
    EXPECT_EQ(hist.percentile(95), 0.0);
    EXPECT_EQ(hist.max(), 0.0);
    for (int i = 0; i < 20000; ++i) {
        std::uint64_t v = rng.chance(0.03)
            ? IntHistogram::denseLimit + rng.range(100000)
            : rng.range(300);
        hist.sample(v);
        sorted.sample(static_cast<double>(v));
        if (i % 4999 == 0) {
            EXPECT_EQ(hist.mean(), sorted.mean()) << i;
            EXPECT_EQ(hist.percentile(95), sorted.percentile(95)) << i;
            EXPECT_EQ(hist.max(), sorted.max()) << i;
        }
    }
    EXPECT_EQ(hist.count(), sorted.count());
    EXPECT_EQ(hist.mean(), sorted.mean());
    EXPECT_EQ(hist.max(), sorted.max());
    for (double p : {0.0, 5.0, 50.0, 95.0, 96.9, 97.0, 99.0, 100.0})
        EXPECT_EQ(hist.percentile(p), sorted.percentile(p)) << p;
}

TEST(NocLatency, NetworkHistogramMatchesDeliveredLatencies)
{
    // Contended traffic from many cores to two L2 banks: the
    // network's latency statistics equal the sort-based ones over the
    // latencies the endpoints observed.
    EventQueue eq;
    RingNetwork net("noc", eq, smallRing());
    Distribution observed;
    struct LatencySink : Endpoint
    {
        EventQueue *eq;
        Distribution *d;
        void
        receive(MessagePtr msg) override
        {
            d->sample(static_cast<double>(eq->now() - msg->sentAt));
        }
    } sink0, sink1;
    sink0.eq = sink1.eq = &eq;
    sink0.d = sink1.d = &observed;
    net.attach(net.l2Node(0), sink0);
    net.attach(net.l2Node(5), sink1);
    Rng rng(9);
    for (int i = 0; i < 3000; ++i) {
        eq.schedule(rng.range(2000), [&net, &rng, i] {
            NodeId dst = i % 2 ? net.l2Node(0) : net.l2Node(5);
            Bytes bytes = rng.chance(0.1) ? 1024 + rng.range(2000)
                                          : 8 + rng.range(200);
            net.send(std::make_unique<Message>(
                net.coreNode(static_cast<unsigned>(rng.range(32))), dst,
                bytes));
        });
    }
    eq.run();
    const IntHistogram &lat = net.latencyStat();
    ASSERT_EQ(lat.count(), 3000u);
    EXPECT_EQ(lat.count(), observed.count());
    EXPECT_EQ(lat.mean(), observed.mean());
    EXPECT_EQ(lat.percentile(95), observed.percentile(95));
    EXPECT_EQ(lat.max(), observed.max());
    EXPECT_GT(net.linkStats(eq.now()).laneWaitCycles, 0u);
}

TEST(FixedNetwork, DistanceFreeDelivery)
{
    EventQueue eq;
    NocParams p = smallRing();
    p.fixedLatency = 10;
    FixedNetwork net("fixed", eq, p);
    Sink near(eq), far(eq);
    net.attach(net.frontendNode(0), near);
    net.attach(net.memCtrlNode(1), far);
    auto a = std::make_unique<Message>(net.coreNode(0),
                                       net.frontendNode(0), 32);
    auto b = std::make_unique<Message>(net.coreNode(0),
                                       net.memCtrlNode(1), 32);
    net.send(std::move(a));
    net.send(std::move(b));
    eq.run();
    ASSERT_EQ(near.arrivals.size(), 1u);
    ASSERT_EQ(far.arrivals.size(), 1u);
    EXPECT_EQ(near.arrivals[0], far.arrivals[0])
        << "fixed topology must ignore distance";
    EXPECT_EQ(net.hopCount(net.coreNode(0), net.memCtrlNode(1)), 0u);
}

/**
 * Regression for the shared per-pair FIFO clamp (Network::deliverAt):
 * no topology/placement may reorder messages between one
 * source/destination pair, no matter how serialization times and
 * contention interleave. Randomized traffic over every topology.
 */
TEST(TopologyNetwork, PerPairFifoUnderRandomTrafficAllTopologies)
{
    struct Probe : Message
    {
        Probe(NodeId s, NodeId d, Bytes b, std::uint64_t sequence)
            : Message(s, d, b), seq(sequence)
        {}
        std::uint64_t seq;
    };

    struct SeqSink : Endpoint
    {
        void
        receive(MessagePtr msg) override
        {
            auto &probe = static_cast<Probe &>(*msg);
            auto key = (std::uint64_t(std::uint32_t(probe.src)) << 32) |
                std::uint32_t(probe.dst);
            auto [it, inserted] = lastSeq.emplace(key, probe.seq);
            if (!inserted) {
                EXPECT_GT(probe.seq, it->second)
                    << "same-pair messages reordered";
                it->second = probe.seq;
            }
        }
        std::map<std::uint64_t, std::uint64_t> lastSeq;
    };

    struct Config
    {
        TopologyKind topology;
        PlacementKind placement;
    };
    const Config configs[] = {
        {TopologyKind::Ring, PlacementKind::Adjacent},
        {TopologyKind::Ring, PlacementKind::Spread},
        {TopologyKind::Mesh, PlacementKind::Spread},
        {TopologyKind::Mesh, PlacementKind::Random},
        {TopologyKind::Fixed, PlacementKind::Adjacent},
    };

    for (const Config &config : configs) {
        EventQueue eq;
        NocParams params = smallRing();
        params.placement = config.placement;
        auto net =
            makeTopology(config.topology, "noc", eq, params);
        SeqSink sink;
        std::vector<NodeId> nodes;
        for (unsigned i = 0; i < 4; ++i)
            nodes.push_back(net->frontendNode(i));
        for (unsigned i = 0; i < 8; ++i)
            nodes.push_back(net->coreNode(i * 4));
        for (unsigned i = 0; i < 4; ++i)
            nodes.push_back(net->l2Node(i));
        for (NodeId node : nodes)
            net->attach(node, sink);

        Rng rng(42);
        std::uint64_t seq = 0;
        for (unsigned burst = 0; burst < 40; ++burst) {
            Cycle when = burst * 3;
            unsigned count =
                static_cast<unsigned>(rng.rangeInclusive(1, 6));
            std::vector<std::unique_ptr<Probe>> batch;
            for (unsigned i = 0; i < count; ++i) {
                NodeId src = nodes[rng.range(nodes.size())];
                NodeId dst = nodes[rng.range(nodes.size())];
                auto bytes = static_cast<Bytes>(
                    8u << rng.range(7)); // 8..512 B
                batch.push_back(
                    std::make_unique<Probe>(src, dst, bytes, seq++));
            }
            eq.schedule(when, [&net, moved = std::move(batch)]() mutable {
                for (auto &m : moved)
                    net->send(std::move(m));
            });
        }
        eq.run();
        EXPECT_FALSE(sink.lastSeq.empty());
    }
}

} // namespace
} // namespace tss
