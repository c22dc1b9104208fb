/**
 * @file
 * The asynchronous point-to-point protocol of the task superscalar
 * frontend (paper Figures 6-9). Every message carries the location of
 * the queried datum in the destination module, so no module except
 * the ORTs needs associative lookups.
 */

#ifndef TSS_CORE_PROTOCOL_HH
#define TSS_CORE_PROTOCOL_HH

#include <vector>

#include "noc/message.hh"
#include "sim/types.hh"
#include "trace/task_trace.hh"

namespace tss
{

/** Reference to a version slot inside a specific OVT. */
struct VersionRef
{
    std::uint16_t ovt = 0xffff;
    std::uint32_t slot = 0;

    bool valid() const { return ovt != 0xffff; }

    friend bool
    operator==(const VersionRef &a, const VersionRef &b)
    {
        return a.ovt == b.ovt && a.slot == b.slot;
    }
};

/** Message discriminator. */
enum class MsgType : std::uint8_t
{
    // Task-generating thread <-> gateway.
    TaskSubmit,
    GatewayCredit,

    // Gateway <-> TRS.
    AllocRequest,
    AllocReply,
    ScalarOperand,
    TrsSpace,

    // TRS -> all gateways (shared-data mode): the oldest-unfinished
    // watermark advanced; re-arbitrate reserve-gated allocations.
    // Also TRS -> subscribed ORT slices (see SliceStarved).
    WatermarkAdvance,

    // ORT -> every TRS (shared-data mode): this directory slice has
    // capacity-parked operands; forward watermark advances to it.
    SliceStarved,

    // Gateway -> ORT.
    DecodeOperand,

    // Gateway -> ORT: several same-slice operand descriptors of one
    // task coalesced into one packet (PipelineConfig::batchOperands).
    DecodeBatch,

    // ORT -> ORT (self): re-arbitration of an operand the sharded
    // directory deferred to keep same-object decode in program order.
    DecodeAdmit,

    // ORT -> gateway: a decode packet finished servicing; its input
    // buffer credit returns (PipelineConfig::slicePacketCredits).
    DecodeCredit,

    // ORT -> gateway (flow control).
    GatewayStall,
    GatewayResume,

    // ORT -> TRS.
    OperandInfo,

    // ORT -> OVT.
    CreateVersion,
    AddReader,

    // OVT/TRS -> TRS.
    DataReady,

    // TRS -> TRS (or TRS -> OVT without chaining).
    RegisterConsumer,

    // TRS -> OVT (task retirement).
    ReleaseUse,
    ProducerDone,

    // OVT <-> ORT (final-version retirement handshake).
    VersionQuiescent,
    RetireVersion,

    // OVT -> ORT.
    VersionDead,

    // TRS -> scheduler, scheduler <-> cores, core -> TRS.
    TaskReady,
    DispatchTask,
    TaskFinished,
    CoreIdle,
};

/** Typed base for all protocol messages. */
struct ProtoMsg : Message
{
    ProtoMsg(MsgType msg_type, Bytes size_bytes)
        : Message(invalidNode, invalidNode, size_bytes), type(msg_type)
    {}

    MsgType type;
};

/** Which readiness a DataReady message reports (paper Figure 9). */
enum class ReadySide : std::uint8_t
{
    Input,  ///< the consumed data has been produced
    Output, ///< the output buffer is exclusively available
};

/// @name Concrete messages.
/// @{

/** Task-generating thread pushes a task into the gateway buffer. */
struct TaskSubmitMsg : ProtoMsg
{
    explicit TaskSubmitMsg(std::uint32_t trace_index, Bytes size_bytes)
        : ProtoMsg(MsgType::TaskSubmit, size_bytes),
          traceIndex(trace_index)
    {}

    std::uint32_t traceIndex;
    unsigned thread = 0; ///< generating thread (section III-B)
};

/** Gateway frees a task buffer entry back to the thread. */
struct GatewayCreditMsg : ProtoMsg
{
    GatewayCreditMsg() : ProtoMsg(MsgType::GatewayCredit, 8) {}
};

/** Gateway asks a TRS to allocate storage (paper Figure 6). */
struct AllocRequestMsg : ProtoMsg
{
    AllocRequestMsg(std::uint32_t trace_index, unsigned operands)
        : ProtoMsg(MsgType::AllocRequest, 16), traceIndex(trace_index),
          numOperands(operands)
    {}

    std::uint32_t traceIndex;
    unsigned numOperands;
};

/** TRS returns the allocated slot ("use slot 17"). */
struct AllocReplyMsg : ProtoMsg
{
    AllocReplyMsg(std::uint32_t trace_index, TaskId task_id)
        : ProtoMsg(MsgType::AllocReply, 16), traceIndex(trace_index),
          id(task_id)
    {}

    std::uint32_t traceIndex;
    TaskId id;
};

/** Scalar operands skip the ORTs (paper section IV-A). */
struct ScalarOperandMsg : ProtoMsg
{
    explicit ScalarOperandMsg(OperandId operand)
        : ProtoMsg(MsgType::ScalarOperand, 16), op(operand)
    {}

    OperandId op;
};

/**
 * TRS -> every gateway: retiring this task advanced the machine-wide
 * oldest-unfinished watermark (TaskRegistry::minUnfinishedIndex).
 * Gateways on *other* pipelines may hold a task that just became
 * eligible for the ROB-head reserve; without this wakeup their
 * allocation loop would only re-run on local traffic and the reserve
 * escape could miss its moment (cross-pipeline deadlock).
 *
 * Modeling note: this message is a data-free wakeup — the woken
 * gateway reads the watermark *value* instantly from the shared
 * TaskRegistry rather than from the packet, so shared-mode timing is
 * optimistic by the watermark-propagation latency (unlike TrsSpace
 * credits, which carry their payload). The reserve path only engages
 * under a window-full jam, where the wakeup latency is already paid.
 */
struct WatermarkAdvanceMsg : ProtoMsg
{
    WatermarkAdvanceMsg() : ProtoMsg(MsgType::WatermarkAdvance, 8) {}
};

/**
 * ORT -> every TRS: the slice's version-slot pool starved and an
 * operand was capacity-parked; forward watermark advances (as
 * WatermarkAdvance wakeups) to this slice from now on. Sent once per
 * slice per run (sticky subscription) the first time it parks an
 * operand for slots — ample-capacity runs never park, never send it,
 * and keep their message counts (and golden stats) untouched. The
 * receiving TRS acks with an immediate WatermarkAdvance so an advance
 * that fired before the subscription landed cannot become a missed
 * wakeup.
 */
struct SliceStarvedMsg : ProtoMsg
{
    SliceStarvedMsg() : ProtoMsg(MsgType::SliceStarved, 8) {}
};

/** TRS tells the gateway blocks were freed (credit resync). */
struct TrsSpaceMsg : ProtoMsg
{
    TrsSpaceMsg(unsigned trs_index, std::uint32_t blocks)
        : ProtoMsg(MsgType::TrsSpace, 12), trs(trs_index),
          freedBlocks(blocks)
    {}

    unsigned trs;
    std::uint32_t freedBlocks;
};

/**
 * Gateway sends one memory operand to the ORT slice owning its
 * address (PipelineConfig::shardOf — possibly on another pipeline).
 *
 * With several generating threads sharing data, the runtime stamps
 * every access with an object *ticket* at task-creation time (a
 * per-object fetch-and-increment, precomputed from the trace by
 * SystemBuilder): @p epoch counts the writes to the object that
 * precede this access in program order, and for writers
 * @p priorReads counts the readers of the preceding version. The
 * owning slice admits accesses in ticket order — readers of one
 * epoch in any order, the next writer only after all of them — which
 * makes the distributed directory's per-object serialization exactly
 * the program order, regardless of message timing.
 */
struct DecodeOperandMsg : ProtoMsg
{
    /**
     * Operand packet size — also the smallest message any station
     * ever injects to *itself* (a DecodeAdmit re-arbitration carries
     * a stashed operand, below).
     */
    static constexpr Bytes packetBytes = 28;

    DecodeOperandMsg(OperandId operand, Dir direction,
                     std::uint64_t address, Bytes object_bytes)
        : ProtoMsg(MsgType::DecodeOperand, packetBytes), op(operand),
          dir(direction), addr(address), objectBytes(object_bytes)
    {}

    OperandId op;
    Dir dir;
    std::uint64_t addr;
    Bytes objectBytes;
    std::uint32_t epoch = 0;      ///< object writes preceding this
    std::uint32_t priorReads = 0; ///< epoch readers (writers only)
    /// Trace index of the owning task, stamped by the gateway. The
    /// slice compares it against the oldest-unfinished watermark to
    /// decide whether the operand may claim a reserve version slot
    /// (the task-level analogue of an ROB-head waiver).
    std::uint32_t traceIndex = 0;
};

/**
 * ORT -> itself: a deferred operand's ticket came due; re-arbitrate
 * it through the slice's input queue. Carries the stashed operand.
 */
struct DecodeAdmitMsg : DecodeOperandMsg
{
    DecodeAdmitMsg(const DecodeOperandMsg &deferred)
        : DecodeOperandMsg(deferred)
    {
        type = MsgType::DecodeAdmit;
    }
};

/**
 * Gateway -> ORT: up to maxBatchOperands() memory operands of one
 * task, all owned by the destination slice, coalesced into a single
 * packet — a shared header plus one 16 B descriptor per operand,
 * within the 64 B packet budget of the paper's Table II. Descriptors
 * stay in program order; the slice processes them in order, so
 * per-object serialization is unchanged. The @p next cursor is the
 * slice's resume point when servicing parks mid-batch (full set / no
 * version credits) — progress survives a park/unpark cycle.
 */
struct DecodeBatchMsg : ProtoMsg
{
    static constexpr Bytes headerBytes = 8;
    static constexpr Bytes descriptorBytes = 16;

    DecodeBatchMsg() : ProtoMsg(MsgType::DecodeBatch, headerBytes) {}

    void
    add(const DecodeOperandMsg &op)
    {
        ops.push_back(op);
        bytes += descriptorBytes;
    }

    std::vector<DecodeOperandMsg> ops;
    unsigned next = 0; ///< ORT resume cursor across park/unpark
};

/**
 * ORT -> gateway: one packet credit of slice @p shard returns (see
 * PipelineConfig::slicePacketCredits). Credits are per
 * (gateway, slice) pair, so the message names the slice.
 */
struct DecodeCreditMsg : ProtoMsg
{
    explicit DecodeCreditMsg(unsigned slice_shard)
        : ProtoMsg(MsgType::DecodeCredit, 8), shard(slice_shard)
    {}

    unsigned shard;
};

/** ORT requests the gateway to pause while its set is full. */
struct GatewayStallMsg : ProtoMsg
{
    GatewayStallMsg() : ProtoMsg(MsgType::GatewayStall, 8) {}
};

/** ORT releases a previously requested stall. */
struct GatewayResumeMsg : ProtoMsg
{
    GatewayResumeMsg() : ProtoMsg(MsgType::GatewayResume, 8) {}
};

/**
 * ORT -> TRS: basic operand information ("operand <1,17,0> is 512B").
 * For readers, @p chainTo names the previous user to register with;
 * @p readyNow short-circuits the chain when the data already rests in
 * memory (version 0) or the operand needs no input data.
 */
struct OperandInfoMsg : ProtoMsg
{
    OperandInfoMsg(OperandId operand, Dir direction, Bytes object_bytes,
                   VersionRef ver, OperandId chain_to, bool ready_now,
                   std::uint64_t buffer_addr)
        : ProtoMsg(MsgType::OperandInfo, 24), op(operand),
          dir(direction), objectBytes(object_bytes), version(ver),
          waitVersion(ver), chainTo(chain_to), readyNow(ready_now),
          buffer(buffer_addr)
    {}

    OperandId op;
    Dir dir;
    Bytes objectBytes;
    VersionRef version;     ///< version this operand reads/produces
    VersionRef waitVersion; ///< version whose data the operand consumes
                            ///< (differs from version for inout; used
                            ///< by the no-chaining ablation)
    OperandId chainTo;      ///< previous user (invalid: no chain)
    bool readyNow;          ///< input data already available
    std::uint64_t buffer;
};

/**
 * ORT -> OVT: create a version for a writer operand
 * ("version+rename for <1,17,0>"). The ORT allocates the slot from
 * its credit pool, so the message is fire-and-forget.
 */
struct CreateVersionMsg : ProtoMsg
{
    CreateVersionMsg(std::uint32_t slot_index, std::uint32_t slot_epoch,
                     OperandId producer_op, std::uint64_t address,
                     Bytes object_bytes, bool rename, bool has_prev,
                     std::uint32_t prev_slot, std::uint32_t ort_entry)
        : ProtoMsg(MsgType::CreateVersion, 24), slot(slot_index),
          epoch(slot_epoch), producer(producer_op), addr(address),
          objectBytes(object_bytes), renamed(rename), hasPrev(has_prev),
          prevSlot(prev_slot), ortEntry(ort_entry)
    {}

    std::uint32_t slot;
    std::uint32_t epoch;    ///< slot incarnation (retire handshake)
    OperandId producer;
    std::uint64_t addr;
    Bytes objectBytes;
    bool renamed;           ///< allocate a fresh rename buffer
    bool hasPrev;           ///< chained after an existing version
    std::uint32_t prevSlot;
    std::uint32_t ortEntry; ///< for VersionDead notifications
};

/** ORT -> OVT: a reader joined a version (usage count +1). */
struct AddReaderMsg : ProtoMsg
{
    AddReaderMsg(std::uint32_t slot_index, OperandId reader_op)
        : ProtoMsg(MsgType::AddReader, 12), slot(slot_index),
          reader(reader_op)
    {}

    std::uint32_t slot;
    OperandId reader;
};

/** Data-ready notification (input side travels down the chain). */
struct DataReadyMsg : ProtoMsg
{
    DataReadyMsg(OperandId operand, ReadySide ready_side,
                 std::uint64_t buffer_addr)
        : ProtoMsg(MsgType::DataReady, 16), op(operand),
          side(ready_side), buffer(buffer_addr)
    {}

    OperandId op;
    ReadySide side;
    std::uint64_t buffer;
};

/**
 * Consumer registration: @p consumer asks to be notified when the
 * data of @p producer's version becomes available (paper Figure 8).
 * With chaining disabled (ablation) this is sent to the OVT instead.
 */
struct RegisterConsumerMsg : ProtoMsg
{
    RegisterConsumerMsg(OperandId producer_op, OperandId consumer_op,
                        std::uint32_t version_slot = 0)
        : ProtoMsg(MsgType::RegisterConsumer, 16), producer(producer_op),
          consumer(consumer_op), slot(version_slot)
    {}

    OperandId producer;
    OperandId consumer;
    std::uint32_t slot; ///< only used by the no-chaining ablation
};

/** TRS -> OVT: a finished task released a read use of a version. */
struct ReleaseUseMsg : ProtoMsg
{
    explicit ReleaseUseMsg(std::uint32_t slot_index)
        : ProtoMsg(MsgType::ReleaseUse, 12), slot(slot_index)
    {}

    std::uint32_t slot;
};

/** TRS -> OVT: a version's producer task finished. */
struct ProducerDoneMsg : ProtoMsg
{
    explicit ProducerDoneMsg(std::uint32_t slot_index)
        : ProtoMsg(MsgType::ProducerDone, 12), slot(slot_index)
    {}

    std::uint32_t slot;
};

/**
 * OVT -> ORT: the final version of an object has quiesced (producer
 * done, no registered readers). The ORT authorizes retirement only if
 * no reader registrations are still in flight (its issued-reader count
 * matches) and no newer writer claimed the object; this closes the
 * race between version death and in-flight AddReader messages.
 */
struct VersionQuiescentMsg : ProtoMsg
{
    VersionQuiescentMsg(std::uint32_t slot_index,
                        std::uint32_t slot_epoch,
                        std::uint32_t readers_seen,
                        std::uint32_t ort_entry)
        : ProtoMsg(MsgType::VersionQuiescent, 12), slot(slot_index),
          epoch(slot_epoch), readersSeen(readers_seen),
          ortEntry(ort_entry)
    {}

    std::uint32_t slot;
    std::uint32_t epoch;
    std::uint32_t readersSeen;
    std::uint32_t ortEntry;
};

/** ORT -> OVT: retirement of a quiescent final version is granted. */
struct RetireVersionMsg : ProtoMsg
{
    RetireVersionMsg(std::uint32_t slot_index, std::uint32_t slot_epoch)
        : ProtoMsg(MsgType::RetireVersion, 12), slot(slot_index),
          epoch(slot_epoch)
    {}

    std::uint32_t slot;
    std::uint32_t epoch;
};

/** OVT -> ORT: a version died; return the slot credit. */
struct VersionDeadMsg : ProtoMsg
{
    VersionDeadMsg(std::uint32_t slot_index, std::uint32_t ort_entry)
        : ProtoMsg(MsgType::VersionDead, 12), slot(slot_index),
          ortEntry(ort_entry)
    {}

    std::uint32_t slot;
    std::uint32_t ortEntry;
};

/** TRS -> scheduler: task has all operands ready. */
struct TaskReadyMsg : ProtoMsg
{
    explicit TaskReadyMsg(TaskId task_id)
        : ProtoMsg(MsgType::TaskReady, 12), id(task_id)
    {}

    TaskId id;
};

/** Scheduler -> core: execute this task. */
struct DispatchTaskMsg : ProtoMsg
{
    explicit DispatchTaskMsg(TaskId task_id)
        : ProtoMsg(MsgType::DispatchTask, 32), id(task_id)
    {}

    TaskId id;
};

/** Core -> TRS: the task's kernel finished executing. */
struct TaskFinishedMsg : ProtoMsg
{
    explicit TaskFinishedMsg(TaskId task_id)
        : ProtoMsg(MsgType::TaskFinished, 12), id(task_id)
    {}

    TaskId id;
};

/** Core -> scheduler: ready for more work. */
struct CoreIdleMsg : ProtoMsg
{
    explicit CoreIdleMsg(unsigned core_index)
        : ProtoMsg(MsgType::CoreIdle, 8), core(core_index)
    {}

    unsigned core;
};

/// @}

} // namespace tss

#endif // TSS_CORE_PROTOCOL_HH
