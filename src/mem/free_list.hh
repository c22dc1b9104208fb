/**
 * @file
 * The TRS/OVT free-block list. Free blocks are chained in eDRAM, each
 * chain node storing 63 pointers to free blocks plus a next pointer;
 * the addresses of the first 64 free blocks are mirrored in a 128-byte
 * SRAM buffer so that a typical allocation takes a single cycle
 * (paper section IV-B.2).
 */

#ifndef TSS_MEM_FREE_LIST_HH
#define TSS_MEM_FREE_LIST_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "mem/edram.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace tss
{

/**
 * A LIFO pool of the ids [0, n) that materializes nothing up front:
 * ids never handed out are implied by a fresh counter, and released
 * ids sit on a recycled stack above it. It hands out exactly the
 * sequence of a stack pre-filled with n-1, ..., 1, 0 — id 0 first,
 * released ids reused most recent first — so construction is O(1)
 * and the ids ever handed out form a dense prefix [0, k): tables
 * indexed by them can grow on demand.
 */
class IdPool
{
  public:
    explicit IdPool(std::uint32_t num_ids = 0) : limit(num_ids) {}

    std::uint32_t
    numFree() const
    {
        return limit - fresh + static_cast<std::uint32_t>(recycled.size());
    }

    bool empty() const { return numFree() == 0; }

    /** Take the most recently released id, else the next fresh one. */
    std::uint32_t
    pop()
    {
        TSS_ASSERT(!empty(), "id pool exhausted");
        if (recycled.empty())
            return fresh++;
        std::uint32_t id = recycled.back();
        recycled.pop_back();
        return id;
    }

    void push(std::uint32_t id) { recycled.push_back(id); }

  private:
    std::uint32_t limit;
    std::uint32_t fresh = 0;
    std::vector<std::uint32_t> recycled;
};

/**
 * Free-list over a fixed pool of equal-size blocks, with the paper's
 * SRAM head buffer timing model.
 */
class BlockFreeList
{
  public:
    /** Entries of the SRAM head buffer (128 B of 2-byte indices). */
    static constexpr unsigned sramEntries = 64;

    /** Pointers per eDRAM chain node. */
    static constexpr unsigned chainFanout = 63;

    /**
     * @param num_blocks Pool size; block indices are [0, num_blocks).
     * @param edram The eDRAM whose latency chain refills charge (may
     *              be null for untimed use).
     */
    explicit BlockFreeList(std::uint32_t num_blocks, Edram *edram = nullptr);

    /** Outcome of a timed allocation. */
    struct Allocation
    {
        std::uint32_t block;
        Cycle cost;
    };

    /**
     * Allocate one block.
     * @return The block index and the cycle cost (1 cycle on an SRAM
     *         hit; plus an eDRAM read when the buffer must refill), or
     *         nullopt when the pool is exhausted.
     */
    std::optional<Allocation> allocate();

    /**
     * Return a block to the pool.
     * @return The cycle cost (1 cycle; an eDRAM write every
     *         chainFanout frees to spill a chain node).
     */
    Cycle release(std::uint32_t block);

    std::uint32_t numFree() const { return freeBlocks.numFree(); }

    std::uint32_t numBlocks() const { return totalBlocks; }
    std::uint32_t numAllocated() const { return totalBlocks - numFree(); }

    /** Fraction of allocations satisfied in a single cycle. */
    double
    sramHitRate() const
    {
        auto total = sramHits.value() + sramMisses.value();
        return total == 0
            ? 1.0 : static_cast<double>(sramHits.value()) / total;
    }

  private:
    std::uint32_t totalBlocks;
    Edram *edram;

    /// All currently free block indices (LIFO: hot blocks reused).
    IdPool freeBlocks;

    /// How many of the top-of-stack entries are mirrored in SRAM.
    unsigned sramCount;

    /// Frees since the last modeled chain-node spill.
    unsigned freesSinceSpill = 0;

    Counter sramHits;
    Counter sramMisses;
};

} // namespace tss

#endif // TSS_MEM_FREE_LIST_HH
