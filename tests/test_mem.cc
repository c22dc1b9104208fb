/**
 * @file
 * Unit tests for the storage substrates: the inode-style block
 * layout, the SRAM-buffered free list, the power-of-2 bucket
 * allocator, the eDRAM model, and the DMA engine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <vector>

#include "mem/block_layout.hh"
#include "mem/bucket_allocator.hh"
#include "mem/dma_engine.hh"
#include "mem/edram.hh"
#include "mem/free_list.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"

namespace tss
{
namespace
{

TEST(BlockLayout, PaperConstants)
{
    EXPECT_EQ(layout::blockBytes, 128u);
    EXPECT_EQ(layout::mainBlockOperands, 4u);
    EXPECT_EQ(layout::indirectBlockOperands, 5u);
    EXPECT_EQ(layout::maxOperands, 19u);
}

TEST(BlockLayout, BlocksForOperands)
{
    EXPECT_EQ(layout::blocksForOperands(0), 1u);
    EXPECT_EQ(layout::blocksForOperands(4), 1u);
    EXPECT_EQ(layout::blocksForOperands(5), 2u);
    EXPECT_EQ(layout::blocksForOperands(9), 2u);
    EXPECT_EQ(layout::blocksForOperands(10), 3u);
    EXPECT_EQ(layout::blocksForOperands(14), 3u);
    EXPECT_EQ(layout::blocksForOperands(15), 4u);
    EXPECT_EQ(layout::blocksForOperands(19), 4u);
}

TEST(BlockLayout, FragmentationIsBounded)
{
    // The paper reports ~20% average internal fragmentation; the
    // layout itself never wastes more than 60%.
    for (unsigned ops = 0; ops <= layout::maxOperands; ++ops) {
        double used = static_cast<double>(layout::usedBytes(ops));
        double alloc =
            static_cast<double>(layout::allocatedBytes(ops));
        EXPECT_LE(used, alloc);
        EXPECT_GE(used / alloc, 0.25);
    }
    // A 4-operand task fits its main block exactly.
    EXPECT_EQ(layout::usedBytes(4), layout::allocatedBytes(4));
}

TEST(FreeList, AllocateAllThenExhaust)
{
    BlockFreeList list(100);
    std::set<std::uint32_t> seen;
    for (int i = 0; i < 100; ++i) {
        auto alloc = list.allocate();
        ASSERT_TRUE(alloc.has_value());
        EXPECT_TRUE(seen.insert(alloc->block).second)
            << "duplicate block";
        EXPECT_LT(alloc->block, 100u);
    }
    EXPECT_EQ(list.numFree(), 0u);
    EXPECT_FALSE(list.allocate().has_value());
}

TEST(FreeList, ReleaseMakesBlocksReusable)
{
    BlockFreeList list(4);
    auto a = list.allocate();
    auto b = list.allocate();
    ASSERT_TRUE(a && b);
    list.release(a->block);
    list.release(b->block);
    EXPECT_EQ(list.numFree(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(list.allocate().has_value());
}

TEST(FreeList, SramHitsAreSingleCycle)
{
    Edram edram(1 << 20);
    BlockFreeList list(1000, &edram);
    // The first 64 allocations hit the SRAM buffer: 1 cycle each.
    for (int i = 0; i < 64; ++i) {
        auto alloc = list.allocate();
        ASSERT_TRUE(alloc.has_value());
        EXPECT_EQ(alloc->cost, 1u);
    }
    // The 65th must refill from eDRAM.
    auto alloc = list.allocate();
    ASSERT_TRUE(alloc.has_value());
    EXPECT_GT(alloc->cost, Edram::defaultLatency);
    EXPECT_LT(list.sramHitRate(), 1.0);
    EXPECT_GT(list.sramHitRate(), 0.9);
}

TEST(FreeList, SteadyStateChurnMostlyHitsSram)
{
    Edram edram(1 << 20);
    BlockFreeList list(4096, &edram);
    std::vector<std::uint32_t> live;
    for (int round = 0; round < 2000; ++round) {
        auto alloc = list.allocate();
        ASSERT_TRUE(alloc.has_value());
        live.push_back(alloc->block);
        if (live.size() > 16) {
            list.release(live.front());
            live.erase(live.begin());
        }
    }
    // Alloc/free churn at stable occupancy: the paper's "typical
    // block allocation takes only 1 cycle".
    EXPECT_GT(list.sramHitRate(), 0.99);
}

/**
 * The free list as first modeled: every free block index on an eager
 * stack (filled in reverse so block 0 goes first), with the same SRAM
 * head-buffer accounting. The on-demand list must match it call for
 * call.
 */
class EagerFreeList
{
  public:
    EagerFreeList(std::uint32_t num_blocks, Edram &edram_model)
        : edram(edram_model),
          sramCount(std::min<std::uint32_t>(BlockFreeList::sramEntries,
                                            num_blocks))
    {
        for (std::uint32_t i = num_blocks; i > 0; --i)
            blocks.push_back(i - 1);
    }

    std::optional<BlockFreeList::Allocation>
    allocate()
    {
        if (blocks.empty())
            return std::nullopt;
        Cycle cost = 1;
        if (sramCount == 0) {
            cost += edram.read();
            sramCount = std::min<std::size_t>(BlockFreeList::sramEntries,
                                              blocks.size());
        }
        std::uint32_t block = blocks.back();
        blocks.pop_back();
        --sramCount;
        return BlockFreeList::Allocation{block, cost};
    }

    Cycle
    release(std::uint32_t block)
    {
        blocks.push_back(block);
        Cycle cost = 1;
        if (sramCount < BlockFreeList::sramEntries) {
            ++sramCount;
        } else if (++freesSinceSpill >= BlockFreeList::chainFanout) {
            freesSinceSpill = 0;
            cost += edram.write();
        }
        return cost;
    }

    std::size_t numFree() const { return blocks.size(); }

  private:
    Edram &edram;
    std::vector<std::uint32_t> blocks;
    std::size_t sramCount;
    unsigned freesSinceSpill = 0;
};

TEST(FreeList, OnDemandListMatchesEagerStack)
{
    // Seeded alloc/free phases that drain the SRAM buffer (refills),
    // overfill it (spills), exhaust the pool and churn: every call
    // must return the same block and charge the same cycles.
    constexpr std::uint32_t blocks = 700;
    Edram edram(1 << 20), ref_edram(1 << 20);
    BlockFreeList list(blocks, &edram);
    EagerFreeList ref(blocks, ref_edram);
    Rng rng(11);
    std::vector<std::uint32_t> live;
    unsigned refills = 0, spills = 0, exhausted = 0;
    for (int step = 0; step < 40000; ++step) {
        // Phases of allocation- and release-heavy traffic.
        double p_alloc = (step / 2000) % 2 == 0 ? 0.7 : 0.3;
        if (live.empty() || rng.chance(p_alloc)) {
            auto got = list.allocate();
            auto want = ref.allocate();
            ASSERT_EQ(got.has_value(), want.has_value()) << step;
            if (!want) {
                ++exhausted;
                continue;
            }
            ASSERT_EQ(got->block, want->block) << step;
            ASSERT_EQ(got->cost, want->cost) << step;
            refills += want->cost > 1;
            live.push_back(want->block);
        } else {
            std::size_t i = rng.range(live.size());
            std::uint32_t block = live[i];
            live[i] = live.back();
            live.pop_back();
            Cycle want = ref.release(block);
            ASSERT_EQ(list.release(block), want) << step;
            spills += want > 1;
        }
        ASSERT_EQ(list.numFree(), ref.numFree()) << step;
    }
    EXPECT_GT(refills, 10u);
    EXPECT_GT(spills, 10u);
    EXPECT_GT(exhausted, 0u);
}

TEST(BucketAllocator, RoundsToPowerOfTwo)
{
    BucketAllocator alloc(0x1000, 1 << 24);
    EXPECT_EQ(alloc.bucketSizeFor(1), 256u);
    EXPECT_EQ(alloc.bucketSizeFor(256), 256u);
    EXPECT_EQ(alloc.bucketSizeFor(257), 512u);
    EXPECT_EQ(alloc.bucketSizeFor(16 * 1024), 16u * 1024);
    EXPECT_EQ(alloc.bucketSizeFor(100 * 1024), 128u * 1024);
}

TEST(BucketAllocator, AllocationsAreDisjoint)
{
    BucketAllocator alloc(0x1000, 1 << 22);
    std::vector<BucketAllocator::Allocation> allocs;
    for (int i = 0; i < 50; ++i) {
        auto a = alloc.allocate(4096);
        ASSERT_TRUE(a.has_value());
        allocs.push_back(*a);
    }
    std::set<std::uint64_t> addrs;
    for (const auto &a : allocs) {
        EXPECT_TRUE(addrs.insert(a.address).second);
        EXPECT_EQ(a.bucketSize, 4096u);
    }
    // Disjoint ranges: sorted addresses are >= bucketSize apart.
    std::uint64_t prev = 0;
    bool first = true;
    for (std::uint64_t addr : addrs) {
        if (!first) {
            EXPECT_GE(addr - prev, 4096u);
        }
        prev = addr;
        first = false;
    }
}

TEST(BucketAllocator, ReleaseRecyclesBuffers)
{
    BucketAllocator alloc(0, 256 * 1024, 256, 1 << 20, 64 * 1024);
    auto a = alloc.allocate(64 * 1024);
    ASSERT_TRUE(a.has_value());
    auto b = alloc.allocate(64 * 1024);
    ASSERT_TRUE(b.has_value());
    auto c = alloc.allocate(64 * 1024);
    ASSERT_TRUE(c.has_value());
    auto d = alloc.allocate(64 * 1024);
    ASSERT_TRUE(d.has_value());
    // Region exhausted: only releases can satisfy new requests.
    EXPECT_FALSE(alloc.allocate(64 * 1024).has_value());
    alloc.release(b->address, b->bucketSize);
    auto e = alloc.allocate(64 * 1024);
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->address, b->address);
}

TEST(BucketAllocator, TracksLiveBuffers)
{
    BucketAllocator alloc(0, 1 << 22);
    auto a = alloc.allocate(1024);
    auto b = alloc.allocate(2048);
    ASSERT_TRUE(a && b);
    EXPECT_EQ(alloc.liveBuffers(), 2u);
    alloc.release(a->address, a->bucketSize);
    EXPECT_EQ(alloc.liveBuffers(), 1u);
}

TEST(Edram, ChargesLatencyAndCounts)
{
    Edram edram(256 * 1024, 22);
    EXPECT_EQ(edram.read(), 22u);
    EXPECT_EQ(edram.read(2), 44u);
    EXPECT_EQ(edram.write(), 22u);
    EXPECT_EQ(edram.numReads(), 3u);
    EXPECT_EQ(edram.numWrites(), 1u);
    EXPECT_EQ(edram.capacity(), 256u * 1024);
}

TEST(DmaEngine, TransfersSerializeOnOneChannel)
{
    EventQueue eq;
    DmaEngine dma("dma", eq, 16.0, 100);
    Cycle first = 0, second = 0;
    dma.transfer(1600, [&] { first = eq.now(); });  // 100 + 100
    dma.transfer(1600, [&] { second = eq.now(); }); // queued behind
    eq.run();
    EXPECT_EQ(first, 200u);
    EXPECT_EQ(second, 400u);
    EXPECT_EQ(dma.numTransfers(), 2u);
    EXPECT_EQ(dma.totalBytes(), 3200u);
}

} // namespace
} // namespace tss
