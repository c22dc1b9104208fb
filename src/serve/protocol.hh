/**
 * @file
 * The tss-serve wire protocol: length-prefixed frames over a local
 * stream socket.
 *
 * Frame layout (little-endian):
 *
 *     u32 payload length | u8 type | payload bytes
 *
 * Client -> server:
 *   Hello    payload = tenant name; opens (or reuses) a tenant
 *   Submit   payload = task program in the trace text format
 *            (trace/trace_io.hh) — the same format saveTrace writes,
 *            so captured workloads replay against the server as-is
 *   Stats    empty; asks for a StatsReport
 *   Shutdown empty; asks the server to drain and exit
 *   Trace    empty; asks for the tenant's most recent job trace
 *            (requires --job-traces on the daemon)
 *
 * Server -> client:
 *   HelloOk  payload = "<tenant-id> <carve-base> <carve-end>"
 *   Accepted payload = "<job-id>"
 *   Busy     empty; admission queue full — backpressure, retry
 *   Error    payload = human-readable reason (bad frame, bad tenant)
 *   Done     empty; drain finished (answer to Shutdown)
 *   Report   payload = ServiceReport JSON (answer to Stats)
 *   TraceData payload = Chrome trace-event JSON of the tenant's most
 *            recently completed job, with wall-clock serve-stage
 *            slices spliced in (answer to Trace)
 *
 * Submissions are parsed with the *non-fatal* parser below: a
 * malformed payload turns into an Error response, never into
 * fatal() — a misbehaving tenant must not take the daemon down.
 */

#ifndef TSS_SERVE_PROTOCOL_HH
#define TSS_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>

#include "trace/task_trace.hh"

namespace tss::serve
{

enum class MsgType : std::uint8_t {
    // client -> server
    Hello = 1,
    Submit = 2,
    Stats = 3,
    Shutdown = 4,
    Trace = 5,
    // server -> client
    HelloOk = 64,
    Accepted = 65,
    Busy = 66,
    Error = 67,
    Done = 68,
    Report = 69,
    TraceData = 70,
};

struct Frame
{
    MsgType type = MsgType::Error;
    std::string payload;
};

/**
 * Read one frame from @p fd (blocking, restarts on EINTR). False on
 * EOF or a malformed prefix; the connection should then be dropped.
 * Payloads above @p max_payload (default 64 MiB) are rejected rather
 * than allocated.
 */
bool readFrame(int fd, Frame &frame,
               std::uint32_t max_payload = 64u << 20);

/** Write one frame to @p fd; false on any write error. */
bool writeFrame(int fd, const Frame &frame);

/**
 * Parse a Submit payload in the trace text format. Unlike
 * tss::readTrace this returns false on malformed input instead of
 * calling fatal(): servers reject, they do not die. A task wider than
 * the TRS operand layout is malformed.
 */
bool parseTraceText(const std::string &text, TaskTrace &out);

/**
 * Largest task runtime a job may carry (2^40 cycles, about 340 s at
 * 3.2 GHz). Cycle arithmetic on anything near 2^64 would overflow.
 */
constexpr Cycle maxTaskRuntime = Cycle(1) << 40;

/**
 * The service's check of a parsed job, for wire text and in-process
 * traces alike: false when a task is wider than the TRS operand
 * layout (layout::maxOperands), runs longer than maxTaskRuntime, or
 * names an operand whose addr + bytes wraps past 2^64 or that is
 * larger than the largest OVT rename bucket
 * (BucketAllocator::largestBucket). Each of these would otherwise
 * kill the process later (fatal() or an assertion in SystemBuilder,
 * the event queue, the relocator or the rename-buffer allocator).
 */
bool validateTrace(const TaskTrace &trace);

/** Serialize @p trace to the Submit payload text. */
std::string formatTraceText(const TaskTrace &trace);

} // namespace tss::serve

#endif // TSS_SERVE_PROTOCOL_HH
