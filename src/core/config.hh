/**
 * @file
 * Configuration of the task superscalar pipeline: module counts,
 * storage capacities, and the latency constants of the paper's
 * simulated platform (Table II), plus behaviour switches used by the
 * ablation benches.
 */

#ifndef TSS_CORE_CONFIG_HH
#define TSS_CORE_CONFIG_HH

#include "mem/block_layout.hh"
#include "noc/topology.hh"
#include "obs/obs_config.hh"
#include "sim/hash.hh"
#include "sim/types.hh"

namespace tss
{

/** Full pipeline + backend configuration. */
struct PipelineConfig
{
    /// @name Frontend structure (paper section VI-A's chosen design
    /// point: 8 TRSs and 2 ORT/OVT pairs suffice for 256 cores).
    /// numTrs/numOrt count instances *per pipeline*; numPipelines
    /// replicates the whole frontend (gateway + TRSs + ORT/OVT pairs)
    /// for the paper's multiple task-generating threads (section
    /// III-B). Task ownership (TRS allocation) stays local to each
    /// pipeline, but the ORT/OVT pairs of all pipelines form one
    /// address-interleaved global directory: shardOf() names the slice
    /// that owns an object, so generating threads may share data.
    /// @{
    unsigned numTrs = 8;
    unsigned numOrt = 2; ///< ORT/OVT pairs (each OVT serves one ORT)
    unsigned numPipelines = 1; ///< independent frontend pipelines
    /// @}

    /// @name Storage capacities (totals across all instances).
    /// @{
    Bytes trsTotalBytes = 6 * 1024 * 1024;  ///< 6 MB (section VI-B)
    Bytes ortTotalBytes = 512 * 1024;       ///< 512 KB (section VI-B)
    Bytes ovtTotalBytes = 512 * 1024;       ///< "similar capacity"
    /// @}

    /// @name Module geometry. Entry sizes follow the paper's tag
    /// layout (two 64 B tag blocks per 16-way set: 8 B of tag per
    /// way, plus packed operand-id/version meta-data).
    /// @{
    unsigned ortWays = 16;       ///< ORT set associativity
    Bytes ortEntryBytes = 16;    ///< per tracked object
    Bytes ovtEntryBytes = 16;    ///< per live version

    /**
     * Version-slot reserve per OVT slice (ordered mode). When a
     * slice's free-slot pool is at or below this mark, only operands
     * of the machine-wide oldest unfinished task
     * (TaskRegistry::minUnfinishedIndex) may claim slots; every
     * other operand is capacity-parked and re-arbitrated on a
     * version death or watermark advance. Versions claimed from the
     * reserve regime admit no younger readers (they park too), so
     * reserve slots are only ever pinned by tasks at or before the
     * then-oldest — which all finish — and the reserve always
     * replenishes: the oldest task can always decode, execute and
     * retire, and induction on the watermark gives liveness.
     *
     * The guarantee needs the reserve to cover the largest per-slice
     * memory-operand count of any single task; the default is the
     * TRS layout's hard operand ceiling, which covers every legal
     * trace. Clamped to slotsPerOvt() at use. 0 disables the escape
     * (debug only — tiny OVTs may then wedge). Ample-capacity runs
     * never drain into the reserve, so their decode decisions (and
     * the golden stats) are unchanged.
     */
    unsigned ovtReserveSlots = layout::maxOperands;
    /// @}

    /// @name Timing (Table II).
    /// @{
    Cycle edramLatency = 22;   ///< per eDRAM access
    Cycle packetLatency = 16;  ///< module processing per packet
    /// @}

    /// @name Gateway / task-generating thread.
    /// @{
    unsigned gatewayBufferTasks = 20; ///< 1 KB buffer, >20 tasks
    Cycle taskGenBaseCycles = 96;     ///< thread-side cost per task
    Cycle taskGenPerOperandCycles = 8;
    /// @}

    /// @name Backend.
    /// @{
    unsigned numCores = 256;
    unsigned corePrefetch = 1;   ///< Carbon-like per-core queue depth
    Cycle dispatchOverhead = 16; ///< scheduler packet processing

    /// Heterogeneous CMP support (the paper's future-work direction:
    /// "managing heterogeneous CMPs at a higher level of
    /// abstraction"). The first numBigCores run at full speed; the
    /// remainder execute tasks slower by littleSpeedFactor (< 1).
    /// Defaults give a homogeneous machine.
    unsigned numBigCores = ~0u;     ///< clamped to numCores
    double littleSpeedFactor = 1.0; ///< relative speed of the rest

    /** Execution-speed factor of a core (1.0 = nominal). */
    double
    coreSpeed(unsigned core) const
    {
        unsigned big = numBigCores > numCores ? numCores : numBigCores;
        return core < big ? 1.0 : littleSpeedFactor;
    }
    /// @}

    /// @name Behaviour switches (ablations; defaults = the paper).
    /// @{
    bool renameOutputs = true;    ///< rename `output` operands
    bool consumerChaining = true; ///< chain consumers vs OVT fan-out
    bool eagerWriteback = true;   ///< DMA copy-back of quiescent
                                  ///< final renamed versions

    /**
     * Ticket-protocol cost ablation: ordered admission still
     * enforces per-object program order (so decisions stay correct
     * and replayable), but parking an out-of-turn operand charges
     * one cycle instead of the real protocol's tag probe
     * (packetLatency + an eDRAM read). Compare decode rates against
     * the real protocol to price the ordering machinery
     * (FrontendStats::decodeDeferrals counts the parked operands
     * either way).
     */
    bool idealAdmission = false;
    /// @}

    /// @name NoC topology, placement and operand batching.
    /// @{
    TopologyKind nocTopology = TopologyKind::Ring;
    PlacementKind nocPlacement = PlacementKind::Adjacent;
    std::uint64_t nocPlacementSeed = 1;

    /**
     * Gateway-side packet batching: coalesce same-destination-slice
     * memory operands of one task into a single DecodeBatchMsg of at
     * most batchPacketBytes (the paper's Table II 64 B packet),
     * flushed at the packet budget or the task boundary. Off by
     * default — the single-pipeline golden stats pin the unbatched
     * frontend.
     */
    bool batchOperands = false;
    Bytes batchPacketBytes = 64;

    /**
     * Gateway -> slice flow control: each directory slice grants
     * every gateway this many packet credits (its per-source input
     * buffer); a DecodeOperand or DecodeBatch packet consumes one,
     * returned by a DecodeCredit packet when the slice finishes
     * servicing it. This puts the gateway->slice->gateway round trip
     * — and therefore topology distance and link contention — on the
     * decode throughput path, which is what the fig17 sweep
     * measures. 0 disables flow control (infinite input queues, the
     * historical idealization; golden stats pin that mode).
     */
    unsigned slicePacketCredits = 0;

    /** Operand descriptors that fit one batch packet. */
    unsigned
    maxBatchOperands() const
    {
        constexpr Bytes header = 8, descriptor = 16;
        if (batchPacketBytes <= header + descriptor)
            return 1;
        return static_cast<unsigned>(
            (batchPacketBytes - header) / descriptor);
    }
    /// @}

    /// @name OVT rename-buffer region.
    /// @{
    Bytes renameRegionBytes = Bytes(1) << 32; ///< OS-assigned space
    /// @}

    /// @name Inert. The simulator drains on one thread with one
    /// uniform lookahead (sim/sim_engine.hh); nothing reads these.
    /// They remain only because the frozen perfbench/ still sets
    /// them, and go with the next change to that benchmark.
    /// @{
    unsigned simThreads = 1;
    bool lookaheadMatrix = true;
    /// @}

    /// @name Observability (src/obs). Host-side only: no trace mode
    /// or filter ever changes a simulated decision or statistic —
    /// the tracer observes, it never schedules.
    /// @{
    obs::TraceMode traceMode = obs::TraceMode::Tail;
    std::uint32_t traceFilter = obs::cat::all;  ///< category mask
    unsigned traceTailRecords = 4096;  ///< bounded wedge-debug tail
    std::string traceOutPath;    ///< Chrome JSON out (implies Full)
    std::string metricsOutPath;  ///< metrics-snapshot JSON out
    /// @}

    /** TRS storage blocks per TRS instance. The configured byte
     *  totals are machine-wide: they divide across all instances of
     *  all pipelines, so varying numPipelines holds storage constant
     *  (iso-capacity comparisons stay honest). */
    std::uint32_t
    blocksPerTrs() const
    {
        return static_cast<std::uint32_t>(
            trsTotalBytes / totalTrs() / layout::blockBytes);
    }

    /** ORT object entries per ORT instance. */
    std::uint32_t
    entriesPerOrt() const
    {
        return static_cast<std::uint32_t>(
            ortTotalBytes / totalOrt() / ortEntryBytes);
    }

    /** OVT version slots per OVT instance. */
    std::uint32_t
    slotsPerOvt() const
    {
        return static_cast<std::uint32_t>(
            ovtTotalBytes / totalOrt() / ovtEntryBytes);
    }

    /// @name Totals across all pipelines (the global module index
    /// spaces used by TaskId.trs and VersionRef.ovt).
    /// @{
    unsigned totalTrs() const { return numPipelines * numTrs; }
    unsigned totalOrt() const { return numPipelines * numOrt; }
    /// @}

    /// @name The address-interleaved directory: every object address
    /// is owned by exactly one global ORT/OVT slice, on whichever
    /// pipeline that slice lives. With one pipeline this reduces to
    /// the historical per-pipeline operand hashing bit-for-bit.
    /// @{

    /** Global ORT/OVT slice owning @p addr. */
    unsigned
    shardOf(std::uint64_t addr) const
    {
        return static_cast<unsigned>(mixAddress(addr) % totalOrt());
    }

    /** Pipeline hosting global ORT/OVT slice @p shard. */
    unsigned shardPipeline(unsigned shard) const { return shard / numOrt; }

    /** Slice index of @p shard within its hosting pipeline. */
    unsigned shardLocalIndex(unsigned shard) const { return shard % numOrt; }
    /// @}

    /** NoC tiles occupied by one frontend pipeline. */
    unsigned
    pipelineSpan() const
    {
        return 1 + numTrs + 2 * numOrt;
    }

    /**
     * NoC tiles used by the frontend: per pipeline a gateway, the
     * TRSs and the ORT/OVT pairs, plus one shared task scheduler
     * (backend queuing system).
     */
    unsigned
    frontendTiles() const
    {
        return numPipelines * pipelineSpan() + 1;
    }

    /// @name Frontend tile indices on the NoC. @p pipe selects the
    /// pipeline; the default reproduces the single-pipeline layout.
    /// @{
    unsigned
    gatewayTile(unsigned pipe = 0) const
    {
        return pipe * pipelineSpan();
    }
    unsigned
    trsTile(unsigned i, unsigned pipe = 0) const
    {
        return pipe * pipelineSpan() + 1 + i;
    }
    unsigned
    ortTile(unsigned i, unsigned pipe = 0) const
    {
        return pipe * pipelineSpan() + 1 + numTrs + i;
    }
    unsigned
    ovtTile(unsigned i, unsigned pipe = 0) const
    {
        return pipe * pipelineSpan() + 1 + numTrs + numOrt + i;
    }
    unsigned schedulerTile() const { return numPipelines * pipelineSpan(); }
    /// @}
};

} // namespace tss

#endif // TSS_CORE_CONFIG_HH
