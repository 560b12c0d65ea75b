/**
 * @file
 * A lightweight statistics package in the spirit of gem5's.
 *
 * Components declare named scalar counters, distributions, log-bucketed
 * histograms and derived formulas inside a StatGroup; groups nest, and
 * any group can be dumped as an indented text report, a JSON object or
 * a flat name=value map.
 */

#ifndef MCUBE_SIM_STATS_HH
#define MCUBE_SIM_STATS_HH

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace mcube
{

class StatGroup;

/**
 * A flattened stat tree: ("group.sub.stat", value) pairs in tree
 * (pre-order) traversal order. Built without per-entry tree rebuilds
 * or redundant string concatenation, unlike a std::map — the container
 * for per-point stat snapshots on hot sweep paths.
 */
using FlatStats = std::vector<std::pair<std::string, double>>;

/** A monotonically growing (or explicitly set) scalar statistic. */
class Counter
{
  public:
    Counter() = default;

    Counter &operator++() { ++val; return *this; }
    Counter &operator+=(std::uint64_t d) { val += d; return *this; }

    void set(std::uint64_t v) { val = v; }
    void reset() { val = 0; }

    std::uint64_t value() const { return val; }

  private:
    std::uint64_t val = 0;
};

/**
 * Streaming mean/min/max/count over observed samples.
 *
 * Variance uses Welford's online recurrence rather than the naive
 * sumSq/n - mean^2 form: for large-magnitude samples (tick
 * timestamps, for instance) the naive form subtracts two nearly equal
 * 10^18-scale values and loses every significant digit, even going
 * negative. Welford's M2 accumulates squared deviations directly, so
 * it stays accurate and non-negative by construction.
 */
class Distribution
{
  public:
    Distribution() = default;

    void
    sample(double v)
    {
        sum += v;
        if (n == 0 || v < _min)
            _min = v;
        if (n == 0 || v > _max)
            _max = v;
        ++n;
        // Welford: each increment (v - oldMean)(v - newMean) is
        // non-negative because newMean lies between oldMean and v.
        double delta = v - _mean;
        _mean += delta / static_cast<double>(n);
        m2 += delta * (v - _mean);
    }

    void
    reset()
    {
        sum = m2 = _mean = 0.0;
        _min = _max = 0.0;
        n = 0;
    }

    std::uint64_t count() const { return n; }
    double mean() const { return n ? _mean : 0.0; }
    double min() const { return _min; }
    double max() const { return _max; }
    double total() const { return sum; }
    /** Population variance of the observed samples (always >= 0). */
    double variance() const;
    /** Population standard deviation. */
    double stddev() const { return std::sqrt(variance()); }

  private:
    double sum = 0.0;
    double _mean = 0.0;
    double m2 = 0.0;  //!< sum of squared deviations from the mean
    double _min = 0.0;
    double _max = 0.0;
    std::uint64_t n = 0;
};

/**
 * A log-bucketed latency histogram with percentile accessors.
 *
 * Bucket 0 holds samples in [0, 1]; bucket i (i >= 1) holds samples
 * in (2^(i-1), 2^i]. With 64 buckets the full Tick range is covered,
 * so sampling never saturates. Percentiles interpolate linearly
 * within the winning bucket and are clamped to the observed
 * [min, max], which makes single-sample and single-bucket
 * distributions exact. Mean/min/max/total are exact (tracked beside
 * the buckets), only percentiles are approximate — the right
 * trade-off for the queueing-delay distributions that matter here,
 * where tail *order of magnitude* is the signal.
 */
class Histogram
{
  public:
    static constexpr unsigned numBuckets = 64;

    Histogram() = default;

    void
    sample(double v)
    {
        if (v < 0.0)
            v = 0.0;
        if (n == 0 || v < _min)
            _min = v;
        if (n == 0 || v > _max)
            _max = v;
        sum += v;
        ++buckets[bucketOf(v)];
        ++n;
    }

    void
    reset()
    {
        buckets.fill(0);
        sum = _min = _max = 0.0;
        n = 0;
    }

    /**
     * Fold another histogram's samples into this one, as if every
     * sample had been recorded here directly. Bucket counts add
     * exactly, so percentiles of the merged histogram equal those of
     * a single histogram fed both streams (e.g. a latency histogram
     * summed over every node).
     */
    void
    merge(const Histogram &o)
    {
        if (o.n == 0)
            return;
        if (n == 0 || o._min < _min)
            _min = o._min;
        if (n == 0 || o._max > _max)
            _max = o._max;
        for (unsigned i = 0; i < numBuckets; ++i)
            buckets[i] += o.buckets[i];
        sum += o.sum;
        n += o.n;
    }

    std::uint64_t count() const { return n; }
    double mean() const { return n ? sum / n : 0.0; }
    double min() const { return _min; }
    double max() const { return _max; }
    double total() const { return sum; }

    /**
     * Approximate quantile for @p q in [0, 1]. q <= 0 reports min(),
     * q >= 1 reports max().
     *
     * Empty-histogram convention: with no samples, every derived
     * statistic — mean, min, max and all percentiles — reports 0.0,
     * never NaN and never a division by zero. A single sample is
     * reported exactly at every percentile (interpolation is clamped
     * to [min, max]). This keeps dump/flatten output finite
     * unconditionally; NaN is not valid JSON, and BENCH_*.json is
     * machine-parsed.
     */
    double percentile(double q) const;

    double p50() const { return percentile(0.50); }
    double p95() const { return percentile(0.95); }
    double p99() const { return percentile(0.99); }
    double p999() const { return percentile(0.999); }

    /** Samples recorded in bucket @p i (range [lowerBound(i),
     *  upperBound(i)]). */
    std::uint64_t bucketCount(unsigned i) const { return buckets[i]; }

    /** Inclusive lower edge of bucket @p i. */
    static double
    lowerBound(unsigned i)
    {
        return i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i) - 1);
    }

    /** Inclusive upper edge of bucket @p i. */
    static double
    upperBound(unsigned i)
    {
        return std::ldexp(1.0, static_cast<int>(i));
    }

    /** Bucket index a value lands in (exposed for tests). */
    static unsigned
    bucketOf(double v)
    {
        if (v <= 1.0)
            return 0;
        if (v >= std::ldexp(1.0, 63))
            return numBuckets - 1;  // uint64 cast below would overflow
        // Smallest i with v <= 2^i, i.e. ceil(log2(v)).
        auto u = static_cast<std::uint64_t>(std::ceil(v)) - 1;
        unsigned i = std::bit_width(u);
        return i < numBuckets ? i : numBuckets - 1;
    }

  private:
    std::array<std::uint64_t, numBuckets> buckets{};
    double sum = 0.0;
    double _min = 0.0;
    double _max = 0.0;
    std::uint64_t n = 0;
};

/**
 * A named collection of statistics. Groups form a tree; leaf stats are
 * registered by reference, so components keep plain Counter members and
 * register them once at construction.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : _name(std::move(name)) {}

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    const std::string &name() const { return _name; }

    /** Register a counter under @p name. The counter must outlive the
     *  group. */
    void addCounter(const std::string &name, const Counter &c,
                    const std::string &desc = "");

    /** Register a distribution under @p name. */
    void addDistribution(const std::string &name, const Distribution &d,
                         const std::string &desc = "");

    /** Register a histogram under @p name. */
    void addHistogram(const std::string &name, const Histogram &h,
                      const std::string &desc = "");

    /** Register a child group. The child must outlive the parent. */
    void addChild(const StatGroup &child);

    /** Write an indented human-readable report. */
    void dump(std::ostream &os, int indent = 0) const;

    /**
     * Flatten every counter, distribution and histogram into
     * "group.sub.stat" -> value entries. Distributions contribute
     * their mean under the bare name plus ".variance"/".stddev"
     * entries; histograms contribute mean plus
     * ".p50"/".p95"/".p99"/".p999".
     */
    void flatten(std::map<std::string, double> &out,
                 const std::string &prefix = "") const;

    /**
     * Append the same entries to @p out in tree order, reusing one
     * growing prefix buffer instead of building a map — the cheap form
     * used per sweep point and per metrics sample.
     */
    void flatten(FlatStats &out) const;

  private:
    void flattenInto(FlatStats &out, std::string &prefix) const;

    struct CounterEntry
    {
        std::string name;
        const Counter *counter;
        std::string desc;
    };

    struct DistEntry
    {
        std::string name;
        const Distribution *dist;
        std::string desc;
    };

    struct HistEntry
    {
        std::string name;
        const Histogram *hist;
        std::string desc;
    };

    std::string _name;
    std::vector<CounterEntry> counters;
    std::vector<DistEntry> dists;
    std::vector<HistEntry> hists;
    std::vector<const StatGroup *> children;
};

} // namespace mcube

#endif // MCUBE_SIM_STATS_HH
