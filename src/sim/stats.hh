/**
 * @file
 * Simulation statistics: scalar counters, sampled distributions, and
 * time-weighted averages.
 */

#ifndef TSS_SIM_STATS_HH
#define TSS_SIM_STATS_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "types.hh"

namespace tss
{

/**
 * A simple monotonically updated scalar statistic. A System's stats
 * are touched by one host thread at a time (its engine's loop).
 */
class Counter
{
  public:
    Counter &
    operator++()
    {
        ++_value;
        return *this;
    }

    Counter &
    operator+=(std::uint64_t n)
    {
        _value += n;
        return *this;
    }

    std::uint64_t value() const { return _value; }

    void reset() { _value = 0; }

  private:
    std::uint64_t _value = 0;
};

/**
 * A sampled distribution retaining every sample, so exact percentiles
 * are available. Sample counts in this simulator are bounded by the
 * number of tasks/messages, which keeps full retention cheap.
 *
 * Every query is computed over the *sorted* samples — including
 * sum(), so floating-point accumulation order is independent of the
 * insertion order and the reported statistics are bit-identical
 * however the domains of a window interleaved their samples.
 */
class Distribution
{
  public:
    void
    sample(double v)
    {
        samples.push_back(v);
        sorted = false;
    }

    std::size_t count() const { return samples.size(); }

    double
    sum() const
    {
        ensureSorted();
        double s = 0;
        for (double v : sortedSamples)
            s += v;
        return s;
    }

    double mean() const { return samples.empty() ? 0 : sum() / count(); }

    double
    min() const
    {
        double m = std::numeric_limits<double>::infinity();
        for (double v : samples)
            m = std::min(m, v);
        return samples.empty() ? 0 : m;
    }

    double
    max() const
    {
        double m = -std::numeric_limits<double>::infinity();
        for (double v : samples)
            m = std::max(m, v);
        return samples.empty() ? 0 : m;
    }

    /** Exact percentile in [0, 100] by nearest-rank. */
    double
    percentile(double p) const
    {
        if (samples.empty())
            return 0;
        ensureSorted();
        double rank = p / 100.0 * (static_cast<double>(count()) - 1);
        auto idx = static_cast<std::size_t>(rank + 0.5);
        return sortedSamples[std::min(idx, count() - 1)];
    }

    double median() const { return percentile(50); }

    void
    reset()
    {
        samples.clear();
        sortedSamples.clear();
        sorted = false;
    }

  private:
    void
    ensureSorted() const
    {
        if (!sorted) {
            sortedSamples = samples;
            std::sort(sortedSamples.begin(), sortedSamples.end());
            sorted = true;
        }
    }

    std::vector<double> samples;
    mutable std::vector<double> sortedSamples;
    mutable bool sorted = false;
};

/**
 * An exact histogram of non-negative integer samples (cycle counts):
 * one counter per value below denseLimit, rarer larger values kept
 * verbatim. It answers exactly what a Distribution fed the same
 * samples answers — the mean over the exact integer sum (the sorted
 * double sum is exact too while it stays below 2^53), nearest-rank
 * percentiles and the maximum — at O(1) per sample and with no sort
 * of the bulk at query time. Not thread-safe: the NoC samples it at
 * window barriers or with no engine attached, always on one thread.
 */
class IntHistogram
{
  public:
    /** Values below this count in a dense per-value array. */
    static constexpr std::uint64_t denseLimit = 4096;

    void
    sample(std::uint64_t v)
    {
        if (v < denseLimit) {
            if (v >= counts.size())
                counts.resize(v + 1, 0);
            ++counts[v];
        } else {
            large.push_back(v);
            largeSorted = false;
        }
        ++n;
        total += v;
    }

    std::uint64_t count() const { return n; }

    double
    mean() const
    {
        return n == 0 ? 0
                      : static_cast<double>(total) / static_cast<double>(n);
    }

    double
    max() const
    {
        if (n == 0)
            return 0;
        if (!large.empty())
            return static_cast<double>(
                *std::max_element(large.begin(), large.end()));
        return static_cast<double>(counts.size() - 1);
    }

    /** Exact percentile in [0, 100] by nearest-rank. */
    double
    percentile(double p) const
    {
        if (n == 0)
            return 0;
        double rank = p / 100.0 * (static_cast<double>(n) - 1);
        auto idx = std::min<std::uint64_t>(
            static_cast<std::uint64_t>(rank + 0.5), n - 1);
        for (std::size_t v = 0; v < counts.size(); ++v) {
            if (idx < counts[v])
                return static_cast<double>(v);
            idx -= counts[v];
        }
        if (!largeSorted) {
            std::sort(large.begin(), large.end());
            largeSorted = true;
        }
        return static_cast<double>(large[idx]);
    }

  private:
    std::vector<std::uint64_t> counts; ///< per value, < denseLimit
    mutable std::vector<std::uint64_t> large;
    mutable bool largeSorted = true;
    std::uint64_t n = 0;
    std::uint64_t total = 0;
};

/**
 * Time-weighted average of a piecewise-constant quantity (queue
 * occupancy, cores busy, ...). Call update() at every change with the
 * current simulated time.
 */
class TimeWeighted
{
  public:
    void
    update(Cycle now, double new_value)
    {
        if (now > lastTime)
            integral += current * static_cast<double>(now - lastTime);
        lastTime = now;
        current = new_value;
        peak = std::max(peak, new_value);
    }

    void add(Cycle now, double delta) { update(now, current + delta); }

    /** Average over [0, now]. */
    double
    average(Cycle now) const
    {
        double total = integral;
        if (now > lastTime)
            total += current * static_cast<double>(now - lastTime);
        return now == 0 ? current : total / static_cast<double>(now);
    }

    double value() const { return current; }
    double maximum() const { return peak; }

  private:
    double current = 0;
    double integral = 0;
    double peak = 0;
    Cycle lastTime = 0;
};

} // namespace tss

#endif // TSS_SIM_STATS_HH
