/**
 * @file
 * Latency/throughput accounting for tss-serve. Two kinds of numbers
 * leave the service, and the split decides what CI may gate on:
 *
 *  - *Simulated* makespans (cycles) are a pure function of (program,
 *    machine config, tenant carve base); their percentiles are
 *    deterministic and gate under the `exact` rule of
 *    `bench/compare_bench.py compare --kind serve`.
 *  - *Wall-clock* latencies and tasks/sec depend on the host and on
 *    open-loop arrival timing; they are recorded for operators and
 *    gate only under the `advisory` rule.
 */

#ifndef TSS_SERVE_METRICS_HH
#define TSS_SERVE_METRICS_HH

#include <cstddef>
#include <vector>

namespace tss::serve
{

/** Order statistics of one sample set. */
struct PercentileSummary
{
    std::size_t count = 0;
    double p50 = 0;
    double p95 = 0;
    double p99 = 0;
    double mean = 0;
    double max = 0;
};

/**
 * Accumulates samples and computes percentile summaries. Percentiles
 * use the nearest-rank method (ceil(q * n), 1-indexed) so a summary
 * over integral samples (simulated cycles) is itself integral —
 * byte-identical across runs and therefore CI-gateable.
 */
class LatencyRecorder
{
  public:
    void record(double sample) { samples.push_back(sample); }
    std::size_t count() const { return samples.size(); }
    PercentileSummary summary() const;

  private:
    std::vector<double> samples;
};

} // namespace tss::serve

#endif // TSS_SERVE_METRICS_HH
