/**
 * @file
 * Flight-recorder cycle tracer. Every instrumented module calls the
 * free function obs::trace() — a thread-local nullptr test when
 * tracing is off — which appends a compact cycle-stamped record to
 * the buffer of the executing event's NoC domain (or to the barrier
 * buffer while the engine applies deferred operations).
 *
 * Determinism: each record carries the DeferKey-style sort key of the
 * event that emitted it — (cycle, station, per-station sequence) from
 * the thread-local ExecContext plus a per-event sub-index — and
 * barrier-side records take (cycle, sentinel station, barrier
 * sequence). In Full mode, at every window barrier the Tracer
 * concatenates the domain buffers in domain order plus the barrier
 * buffer and stable-sorts by that key. In Tail mode the buffers are
 * preallocated power-of-two rings — one masked store per record,
 * nothing per window — and the export key-sorts the surviving
 * per-domain tails once at the end. Buffers are per domain, not one
 * shared ring, so a busy domain cannot push a quiet domain's last
 * records out of the tail. Both the per-domain contents and the
 * barrier apply order are pure functions of simulated state, so the
 * drained record stream — and the exported Chrome trace-event JSON —
 * is byte-identical from run to run.
 *
 * The exporter emits integers only (cycle timestamps, packed ids), so
 * the bytes are also host-independent.
 */

#ifndef TSS_OBS_TRACE_HH
#define TSS_OBS_TRACE_HH

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

#include "obs/obs_config.hh"
#include "sim/exec_context.hh"
#include "sim/types.hh"

namespace tss
{
namespace obs
{

/** What happened. Grouped by filter category (see categoryOf). */
enum class TraceEvent : std::uint8_t
{
    TaskSubmit,         ///< a = task trace index, b = generating thread
    TaskAlloc,          ///< a = task trace index, b = TRS node
    TaskDecodeDone,     ///< a = task trace index, b = operand count
    TaskReady,          ///< a = task trace index
    TaskDispatch,       ///< a = task trace index, b = core index
    TaskStart,          ///< a = task trace index, b = core index
    TaskRetire,         ///< a = task trace index, b = start cycle
    OperandTicketPark,  ///< a = slice index, b = object address
    OperandSlotPark,    ///< a = slice index, b = object address
    OperandUnpark,      ///< a = slice index, b = object address
    VersionCreate,      ///< a = slice index, b = version slot
    VersionReserved,    ///< a = slice index, b = version slot
    VersionDead,        ///< a = slice index, b = version slot
    NocSend,            ///< a = (src << 16) | dst, b = payload bytes
    NocDeliver,         ///< a = (src << 16) | dst, b = latency
    NocLaneWait,        ///< a = 0 (per-link, link anonymous), b = wait
    WindowBarrier,      ///< a = deferred ops applied, b = window end
    ServeEnqueue,       ///< a = stage index, b = job id
    ServeDequeue,       ///< a = stage index, b = job id
};

/** Filter-category bit of an event type. */
std::uint32_t categoryOf(TraceEvent type);

/** Short dotted name used in the Chrome export ("task.submit"...). */
const char *traceEventName(TraceEvent type);

/**
 * One flight-recorder record: the semantic timestamp @p when doubles
 * as the primary sort-key component; (station, seq, sub) complete the
 * globally unique key (see file comment). 40 bytes.
 */
struct TraceRecord
{
    Cycle when = 0;
    std::uint64_t seq = 0;
    std::uint64_t b = 0;
    std::uint32_t a = 0;
    std::int32_t station = 0;
    std::uint32_t sub = 0;
    TraceEvent type = TraceEvent::TaskSubmit;
};

/**
 * Per-domain (or barrier-side) record buffer. The owning domain's
 * events append; the Tracer's drainWindow() — at the window barrier —
 * moves records out.
 *
 * Two storage modes. Growable (Full-mode default): records append to
 * a vector that drainWindow() takes every window. Ring (Tail mode,
 * via setRing): records overwrite a preallocated power-of-two ring —
 * one masked store per record, no allocation, no per-window drain —
 * and the Tracer end-sorts the surviving tails once at export. Both
 * retain identical per-record content, so the tail export stays a
 * pure function of simulated state.
 */
class TraceBuf
{
  public:
    /** Sentinel station of records emitted outside any event. */
    static constexpr std::int32_t barrierStation =
        std::numeric_limits<std::int32_t>::max();

    explicit TraceBuf(std::uint32_t mask = cat::all) : mask(mask) {}

    /**
     * Switch to ring storage keeping the last >= @p cap records
     * (rounded up to a power of two). Call before any emit.
     */
    void
    setRing(std::size_t cap)
    {
        std::size_t n = 1;
        while (n < cap)
            n <<= 1;
        ring.assign(n, TraceRecord{});
        ringMask = n - 1;
    }

    /** Records appended (post-filter), including overwritten ones. */
    std::uint64_t emitted() const { return ringCount; }

    /**
     * The ring's surviving records in emission order (oldest first).
     * Empty for growable buffers.
     */
    std::vector<TraceRecord> ringTail() const;

    /**
     * Append a record. Keyed by the executing event's ExecContext
     * when one is live (with a per-event sub-index that is *separate*
     * from ExecContext::opIndex, so deferred-operation keys are
     * untouched), else by (when, barrierStation, local sequence).
     */
    void
    emit(TraceEvent type, Cycle when, std::uint32_t a,
         std::uint64_t b = 0)
    {
        if (!(categoryOf(type) & mask))
            return;
        TraceRecord r;
        r.when = when;
        r.b = b;
        r.a = a;
        r.type = type;
        if (execCtx.sink) {
            if (execCtx.when != keyWhen ||
                execCtx.station != keyStation ||
                execCtx.seq != keySeq) {
                keyWhen = execCtx.when;
                keyStation = execCtx.station;
                keySeq = execCtx.seq;
                nextSub = 0;
            }
            r.station = execCtx.station;
            r.seq = execCtx.seq;
            r.sub = nextSub++;
        } else {
            r.station = barrierStation;
            r.seq = barrierSeq++;
            r.sub = 0;
        }
        if (ring.empty())
            records.push_back(r);
        else
            ring[ringCount++ & ringMask] = r;
    }

    bool empty() const { return records.empty() && ringCount == 0; }
    std::size_t size() const { return records.size(); }

    /** Move the buffered records out (growable mode, barrier side). */
    std::vector<TraceRecord> take();

  private:
    std::vector<TraceRecord> records;
    std::vector<TraceRecord> ring; ///< non-empty iff ring mode
    std::uint64_t ringCount = 0;   ///< appends since setRing
    std::uint64_t ringMask = 0;
    std::uint32_t mask;
    Cycle keyWhen = invalidCycle;
    std::int32_t keyStation = -1;
    std::uint64_t keySeq = 0;
    std::uint32_t nextSub = 0;
    std::uint64_t barrierSeq = 0;
};

/**
 * The thread-local emit target. Null outside a traced region: set by
 * EventQueue::step() for the duration of one event (only when the
 * queue has a trace buffer wired) and by Tracer::beginBarrier()
 * /endBarrier() around the engine's deferred-op apply phase. Never
 * left dangling across runs — independent Systems simulating
 * concurrently (tss-serve) must not observe each other's buffers.
 */
extern thread_local TraceBuf *traceBuf;

/**
 * Record a trace event. The fast path when tracing is off is one
 * thread-local load and compare; under TSS_OBS_DISABLE the call
 * compiles away entirely.
 */
inline void
trace(TraceEvent type, Cycle when, std::uint32_t a, std::uint64_t b = 0)
{
#ifndef TSS_OBS_DISABLE
    if (TraceBuf *buf = traceBuf)
        buf->emit(type, when, a, b);
#else
    (void)type;
    (void)when;
    (void)a;
    (void)b;
#endif
}

/**
 * The flight recorder of one System run: owns one TraceBuf per NoC
 * domain plus a barrier buffer, drains them deterministically at every
 * window barrier, and exports Chrome trace-event JSON.
 */
class Tracer
{
  public:
    Tracer(TraceMode mode, std::uint32_t filter_mask,
           unsigned num_domains, std::size_t tail_records);

    TraceMode mode() const { return _mode; }
    unsigned numDomains() const
    {
        return static_cast<unsigned>(domainBufs.size());
    }

    /** Buffer of domain @p i; the engine's queue indexes from 0. */
    TraceBuf *domainBuf(unsigned i) { return &domainBufs[i]; }

    /** Route emissions to the barrier buffer (engine apply phase). */
    void beginBarrier();
    /** Stop routing; the thread-local target returns to null. */
    void endBarrier();

    /** Emit the engine's per-window barrier record (engine category). */
    void recordWindowBarrier(Cycle window_end, std::size_t applied);

    /**
     * Merge this window's domain + barrier buffers into the retained
     * log: concatenate in domain order (barrier buffer last) and
     * stable-sort by (when, station, seq, sub). Deterministic by
     * construction. In Tail mode this is a no-op
     * — the ring buffers retain their own tails and tailJson()
     * end-sorts them once, so the per-window concat + sort never runs
     * on the hot path.
     */
    void drainWindow();

    /** Name a track for the exporter's thread_name metadata. */
    void setTrackName(int pid, std::int64_t tid, std::string name);

    /** Records emitted (post-filter), including ring overwrites. */
    std::uint64_t totalRecords() const;
    const std::vector<TraceRecord> &log() const { return full; }

    /** Full Chrome trace-event JSON document (Full mode). */
    void exportChromeJson(std::ostream &os) const;
    std::string chromeJson() const;

    /**
     * Bounded-tail Chrome JSON — what LivenessReport attaches. Tail
     * mode: the union of the per-domain rings (each a deterministic
     * per-domain suffix), key-sorted, trimmed to the last tailCap
     * records. Full mode: the last tailCap of the drained stream.
     */
    std::string tailJson() const;

  private:
    void writeChrome(std::ostream &os,
                     const std::vector<TraceRecord> &records) const;

    struct TrackName
    {
        int pid;
        std::int64_t tid;
        std::string name;
    };

    TraceMode _mode;
    std::uint32_t mask;
    std::vector<TraceBuf> domainBufs;
    TraceBuf barrier;
    std::vector<TraceRecord> full;   ///< Full mode retention
    std::deque<TraceRecord> tail;    ///< bounded always-on tail
    std::size_t tailCap;
    std::uint64_t total = 0;
    std::vector<TrackName> tracks;
};

/**
 * Splice pre-formatted Chrome event objects (comma-separated, no
 * trailing comma) into an exported document, before its closing
 * "\n]}\n". Used by tss-serve to add wall-clock stage-dwell slices
 * (pid 2) to a job's simulation trace.
 */
void appendChromeEvents(std::string &doc, const std::string &events);

/** One serve-stage Chrome slice ("X", pid 2) for appendChromeEvents. */
std::string serveStageSlice(const std::string &name, int stage,
                            std::int64_t ts_us, std::int64_t dur_us,
                            std::uint64_t job_id);

} // namespace obs
} // namespace tss

#endif // TSS_OBS_TRACE_HH
