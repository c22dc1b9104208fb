/**
 * @file
 * Observability knobs shared by the config surface (core/config.hh),
 * the CLI (driver/run_options), and the tracer itself. Kept light —
 * this header is included by PipelineConfig and must not pull in the
 * tracer implementation.
 */

#ifndef TSS_OBS_OBS_CONFIG_HH
#define TSS_OBS_OBS_CONFIG_HH

#include <cstdint>
#include <string>

namespace tss
{
namespace obs
{

/**
 * How much trace the flight recorder retains.
 *
 * - Off: no Tracer is constructed; the emit fast path is a single
 *   thread-local nullptr test (and compiles out entirely under
 *   TSS_OBS_DISABLE).
 * - Tail: the default. Records flow through the per-domain buffers but
 *   only a bounded tail (traceTailRecords) is retained, so a wedged
 *   run can attach its last moments to the LivenessReport at zero
 *   configuration cost.
 * - Full: every record is retained for export (--trace-out or the
 *   serve Trace message).
 */
enum class TraceMode : std::uint8_t
{
    Off,
    Tail,
    Full,
};

/** Record-category bits for --trace-filter. */
namespace cat
{
constexpr std::uint32_t task = 1u << 0;     ///< task lifecycle flow
constexpr std::uint32_t version = 1u << 1;  ///< OVT version slots
constexpr std::uint32_t noc = 1u << 2;      ///< sends/deliveries/lanes
constexpr std::uint32_t engine = 1u << 3;   ///< window barriers
constexpr std::uint32_t serve = 1u << 4;    ///< serve-pipeline stages
constexpr std::uint32_t all = task | version | noc | engine | serve;
} // namespace cat

/**
 * Parse a comma-separated category list ("task,noc"); "all" or an
 * empty spec selects every category. Unknown names are ignored (an
 * all-unknown spec yields 0, i.e. trace nothing).
 */
std::uint32_t parseTraceFilter(const std::string &spec);

/** Format a mask back to the canonical comma list ("all" when full). */
std::string formatTraceFilter(std::uint32_t mask);

/** Parse off|tail|full (defaults to Tail on unknown input). */
TraceMode parseTraceMode(const std::string &name);

/** Canonical name of a mode. */
const char *traceModeName(TraceMode mode);

} // namespace obs
} // namespace tss

#endif // TSS_OBS_OBS_CONFIG_HH
