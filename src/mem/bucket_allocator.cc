#include "bucket_allocator.hh"

#include <bit>

namespace tss
{

namespace
{

Bytes
roundUpPow2(Bytes v)
{
    return std::bit_ceil(v);
}

} // namespace

BucketAllocator::BucketAllocator(std::uint64_t region_base,
                                 Bytes region_bytes, Bytes min_size,
                                 Bytes max_size, Bytes chunk_bytes)
    : regionBase(region_base), regionBytes(region_bytes),
      minSize(roundUpPow2(min_size)), maxSize(roundUpPow2(max_size)),
      chunkBytes(chunk_bytes)
{
    TSS_ASSERT(minSize <= maxSize, "bucket size range inverted");
    unsigned classes = 1;
    for (Bytes s = minSize; s < maxSize; s <<= 1)
        ++classes;
    buckets.resize(classes);
}

Bytes
BucketAllocator::bucketSizeFor(Bytes bytes) const
{
    Bytes size = roundUpPow2(bytes < minSize ? minSize : bytes);
    TSS_ASSERT(size <= maxSize,
               "rename buffer of %llu bytes exceeds the largest bucket",
               (unsigned long long)bytes);
    return size;
}

unsigned
BucketAllocator::bucketIndexFor(Bytes bytes) const
{
    Bytes size = bucketSizeFor(bytes);
    unsigned idx = 0;
    for (Bytes s = minSize; s < size; s <<= 1)
        ++idx;
    return idx;
}

std::optional<BucketAllocator::Allocation>
BucketAllocator::allocate(Bytes bytes)
{
    unsigned idx = bucketIndexFor(bytes);
    Bytes size = bucketSizeFor(bytes);
    auto &bucket = buckets[idx];

    Cycle cost = 1;
    if (bucket.empty()) {
        // Refill the bucket with a fresh chunk of the OS region.
        Bytes chunk = std::max(chunkBytes, size);
        if (regionUsed + chunk > regionBytes)
            return std::nullopt;
        std::uint64_t base = regionBase + regionUsed;
        regionUsed += chunk;
        for (Bytes off = 0; off + size <= chunk; off += size)
            bucket.push_back(base + off);
        // Walking the in-memory list costs a main-memory round trip;
        // modeled as a constant charge on the unlucky allocation.
        cost += 100;
    }

    std::uint64_t addr = bucket.back();
    bucket.pop_back();
    ++live;
    return Allocation{addr, size, cost};
}

void
BucketAllocator::release(std::uint64_t address, Bytes bucket_size)
{
    unsigned idx = bucketIndexFor(bucket_size);
    buckets[idx].push_back(address);
    TSS_ASSERT(live > 0, "release with no live buffers");
    --live;
}

} // namespace tss
