/**
 * @file
 * Station placement on the global interconnect. A PlacementPolicy
 * decides which global stop every station (processor-ring hub,
 * frontend tile, L2 bank, memory controller) occupies; the topology
 * then charges distances and contention between those stops. The
 * historical layout — hubs first, then the frontend tiles as one
 * adjacent block, then L2 banks, then memory controllers — is the
 * Adjacent policy, and is the *optimistic* floorplan: cross-slice
 * frontend traffic never travels far. Spread and Random model
 * realistic floorplans where the frontend is not a single block.
 */

#ifndef TSS_NOC_PLACEMENT_HH
#define TSS_NOC_PLACEMENT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace tss
{

/** How stations map to global interconnect stops. */
enum class PlacementKind : std::uint8_t
{
    /** Historical layout: hubs, frontend tiles (one block), L2, MC. */
    Adjacent,

    /** Frontend tiles interleaved evenly among the hub/L2/MC stops. */
    Spread,

    /** Seeded uniform shuffle of all stations. */
    Random,
};

const char *toString(PlacementKind kind);

/** Parse "adjacent" / "spread" / "random"; calls fatal() otherwise. */
PlacementKind placementFromString(const std::string &name);

/** Global stop index of every station, by station type. */
struct PlacementMap
{
    std::vector<unsigned> hubStop;      ///< per processor ring
    std::vector<unsigned> frontendStop; ///< per frontend tile
    std::vector<unsigned> l2Stop;       ///< per L2 bank
    std::vector<unsigned> mcStop;       ///< per memory controller
    unsigned globalStops = 0;
};

/**
 * Place @p hubs + @p tiles + @p l2 + @p mc stations on
 * `hubs + tiles + l2 + mc` global stops under @p kind. @p seed only
 * affects PlacementKind::Random. The Adjacent map reproduces the
 * historical ring layout exactly (golden-stat compatible).
 */
PlacementMap makePlacement(PlacementKind kind, unsigned hubs,
                           unsigned tiles, unsigned l2, unsigned mc,
                           std::uint64_t seed);

} // namespace tss

#endif // TSS_NOC_PLACEMENT_HH
