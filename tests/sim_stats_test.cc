/** @file Unit tests for the statistics package. */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>

#include "sim/stats.hh"

using namespace mcube;

TEST(Counter, IncrementAndAdd)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 5;
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
    c.set(42);
    EXPECT_EQ(c.value(), 42u);
}

TEST(Distribution, TracksMoments)
{
    Distribution d;
    d.sample(2.0);
    d.sample(4.0);
    d.sample(6.0);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_DOUBLE_EQ(d.mean(), 4.0);
    EXPECT_DOUBLE_EQ(d.min(), 2.0);
    EXPECT_DOUBLE_EQ(d.max(), 6.0);
    EXPECT_DOUBLE_EQ(d.total(), 12.0);
    EXPECT_NEAR(d.variance(), 8.0 / 3.0, 1e-9);
}

TEST(Distribution, EmptyIsZero)
{
    Distribution d;
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    EXPECT_DOUBLE_EQ(d.variance(), 0.0);
}

TEST(Distribution, ResetClears)
{
    Distribution d;
    d.sample(10.0);
    d.reset();
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
}

TEST(Distribution, VarianceAppearsInDumps)
{
    Distribution d;
    d.sample(2.0);
    d.sample(4.0);
    d.sample(6.0);
    EXPECT_NEAR(d.stddev(), std::sqrt(8.0 / 3.0), 1e-9);

    StatGroup g("grp");
    g.addDistribution("lat", d);

    std::ostringstream text;
    g.dump(text);
    EXPECT_NE(text.str().find("stddev"), std::string::npos);

    std::map<std::string, double> flat;
    g.flatten(flat);
    EXPECT_NEAR(flat.at("grp.lat.variance"), 8.0 / 3.0, 1e-9);
    EXPECT_NEAR(flat.at("grp.lat.stddev"), std::sqrt(8.0 / 3.0), 1e-9);
}

TEST(Distribution, WelfordSurvivesLargeOffsets)
{
    // The naive sumSq/n - mean^2 formula catastrophically cancels
    // when the variance is tiny relative to the magnitude of the
    // samples: for {1e9+1, 1e9+2, 1e9+3}, sumSq ~ 3e18 eats the
    // units digit entirely and the subtraction returns garbage
    // (often negative). Welford's update never forms the big
    // squares, so the exact population variance 2/3 comes out.
    Distribution d;
    d.sample(1e9 + 1.0);
    d.sample(1e9 + 2.0);
    d.sample(1e9 + 3.0);
    EXPECT_DOUBLE_EQ(d.mean(), 1e9 + 2.0);
    EXPECT_NEAR(d.variance(), 2.0 / 3.0, 1e-9);
    EXPECT_NEAR(d.stddev(), std::sqrt(2.0 / 3.0), 1e-9);
}

TEST(Distribution, VarianceNeverNegative)
{
    // Identical large samples: exact variance is 0. Any cancellation
    // bug shows up as a (possibly negative) residual, and stddev()
    // would be NaN.
    Distribution d;
    for (int i = 0; i < 1000; ++i)
        d.sample(123456789.0);
    EXPECT_GE(d.variance(), 0.0);
    EXPECT_DOUBLE_EQ(d.variance(), 0.0);
    EXPECT_FALSE(std::isnan(d.stddev()));

    // A long near-constant stream with a tiny wobble stays exact too.
    Distribution e;
    for (int i = 0; i < 10000; ++i)
        e.sample(5e8 + (i % 2 ? 0.5 : -0.5));
    EXPECT_GE(e.variance(), 0.0);
    EXPECT_NEAR(e.variance(), 0.25, 1e-6);
}

TEST(Distribution, GoldenMoments)
{
    // Fixed dataset, exact expectations (population moments).
    const double xs[] = {3.0, 7.0, 7.0, 19.0};
    Distribution d;
    for (double x : xs)
        d.sample(x);
    EXPECT_EQ(d.count(), 4u);
    EXPECT_DOUBLE_EQ(d.total(), 36.0);
    EXPECT_DOUBLE_EQ(d.mean(), 9.0);
    EXPECT_DOUBLE_EQ(d.min(), 3.0);
    EXPECT_DOUBLE_EQ(d.max(), 19.0);
    // variance = ((3-9)^2 + (7-9)^2 + (7-9)^2 + (19-9)^2) / 4 = 36
    EXPECT_NEAR(d.variance(), 36.0, 1e-12);
    EXPECT_NEAR(d.stddev(), 6.0, 1e-12);
}

TEST(StatGroup, FlatStatsMatchesMapFlatten)
{
    Counter c;
    c += 3;
    Distribution d;
    d.sample(7.0);
    Histogram h;
    h.sample(100.0);

    StatGroup root("root");
    StatGroup child("child");
    root.addCounter("ops", c);
    child.addDistribution("lat", d);
    child.addHistogram("qd", h);
    root.addChild(child);

    std::map<std::string, double> asMap;
    root.flatten(asMap);
    FlatStats asVec;
    root.flatten(asVec);

    // Same entries, and the vector form holds them in stable tree
    // order (parent stats before children) with no rebuild cost.
    EXPECT_EQ(asVec.size(), asMap.size());
    for (const auto &[name, value] : asVec) {
        ASSERT_TRUE(asMap.count(name)) << name;
        EXPECT_DOUBLE_EQ(asMap.at(name), value) << name;
    }
    ASSERT_FALSE(asVec.empty());
    EXPECT_EQ(asVec.front().first, "root.ops");
}

TEST(Histogram, PercentileGoldenValues)
{
    // 100 samples of 1.0 (bucket 0, upper bound 1.0): every
    // percentile interpolates within [0, 1] and the extremes are
    // exact.
    Histogram h;
    for (int i = 0; i < 100; ++i)
        h.sample(1.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 1.0);
    EXPECT_GE(h.p50(), 0.0);
    EXPECT_LE(h.p50(), 1.0);

    // Two-bucket split: 50 samples in (1,2], 50 in (2,4]. The median
    // sits at the boundary between the buckets and the interpolation
    // must return exactly the shared edge, 2.0.
    Histogram g;
    for (int i = 0; i < 50; ++i)
        g.sample(2.0);
    for (int i = 0; i < 50; ++i)
        g.sample(4.0);
    EXPECT_DOUBLE_EQ(g.percentile(0.5), 2.0);
    // p25 interpolates to the middle of bucket (1,2] but clamps to
    // the observed minimum 2.0; p75 is the midpoint of (2,4].
    EXPECT_DOUBLE_EQ(g.percentile(0.25), 2.0);
    EXPECT_NEAR(g.percentile(0.75), 3.0, 1e-9);
    EXPECT_DOUBLE_EQ(g.percentile(1.0), 4.0);
}

TEST(Histogram, BucketEdges)
{
    // Bucket 0 is [0, 1]; bucket i is (2^(i-1), 2^i].
    EXPECT_EQ(Histogram::bucketOf(0.0), 0u);
    EXPECT_EQ(Histogram::bucketOf(1.0), 0u);
    EXPECT_EQ(Histogram::bucketOf(1.5), 1u);
    EXPECT_EQ(Histogram::bucketOf(2.0), 1u);
    EXPECT_EQ(Histogram::bucketOf(2.5), 2u);
    EXPECT_EQ(Histogram::bucketOf(4.0), 2u);
    EXPECT_EQ(Histogram::bucketOf(1024.0), 10u);
    EXPECT_EQ(Histogram::bucketOf(1025.0), 11u);
    // Huge values saturate into the last bucket instead of indexing
    // out of range.
    EXPECT_EQ(Histogram::bucketOf(1e30), Histogram::numBuckets - 1);
    for (unsigned i = 1; i < 20; ++i) {
        EXPECT_EQ(Histogram::bucketOf(Histogram::upperBound(i)), i);
        EXPECT_EQ(Histogram::bucketOf(Histogram::lowerBound(i) + 0.5),
                  i);
    }
}

TEST(Histogram, EmptyReportsZero)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.p50(), 0.0);
    EXPECT_DOUBLE_EQ(h.p99(), 0.0);
}

TEST(Histogram, SingleSampleIsExact)
{
    Histogram h;
    h.sample(100.0);
    EXPECT_DOUBLE_EQ(h.p50(), 100.0);
    EXPECT_DOUBLE_EQ(h.p95(), 100.0);
    EXPECT_DOUBLE_EQ(h.p99(), 100.0);
    EXPECT_DOUBLE_EQ(h.mean(), 100.0);
    EXPECT_DOUBLE_EQ(h.min(), 100.0);
    EXPECT_DOUBLE_EQ(h.max(), 100.0);
}

// ---------------------------------------------------------------------
// 0-sample and 1-sample edge cases across every export path. The
// convention (see Histogram::percentile): an EMPTY histogram or
// distribution reports 0.0 for every derived statistic — mean,
// variance, stddev, min, max and all percentiles — never NaN or a
// division by zero; a SINGLE sample reports that sample exactly for
// every percentile (interpolation clamps to [min, max]). BENCH_*.json
// files are machine-parsed, and NaN is not valid JSON, so any
// non-finite value here would corrupt them.
// ---------------------------------------------------------------------

TEST(Histogram, ZeroAndOneSamplePercentileTailsAreFinite)
{
    Histogram empty;
    for (double q : {0.5, 0.95, 0.99, 0.999}) {
        EXPECT_TRUE(std::isfinite(empty.percentile(q))) << q;
        EXPECT_DOUBLE_EQ(empty.percentile(q), 0.0) << q;
    }
    EXPECT_DOUBLE_EQ(empty.p999(), 0.0);

    Histogram one;
    one.sample(37.0);
    for (double q : {0.5, 0.95, 0.99, 0.999}) {
        EXPECT_TRUE(std::isfinite(one.percentile(q))) << q;
        EXPECT_DOUBLE_EQ(one.percentile(q), 37.0) << q;
    }
    EXPECT_DOUBLE_EQ(one.p999(), 37.0);
}

TEST(StatGroup, EmptyAndSingleSampleDumpsStayFinite)
{
    Histogram empty_h, one_h;
    Distribution empty_d, one_d;
    one_h.sample(42.0);
    one_d.sample(42.0);

    StatGroup g("edge");
    g.addHistogram("empty_h", empty_h);
    g.addHistogram("one_h", one_h);
    g.addDistribution("empty_d", empty_d);
    g.addDistribution("one_d", one_d);

    // flatten: every value finite; empty stats all-zero.
    std::map<std::string, double> flat;
    g.flatten(flat);
    ASSERT_FALSE(flat.empty());
    for (const auto &[name, value] : flat) {
        EXPECT_TRUE(std::isfinite(value)) << name;
        if (name.find("empty_") != std::string::npos)
            EXPECT_DOUBLE_EQ(value, 0.0) << name;
    }
    EXPECT_DOUBLE_EQ(flat.at("edge.one_h.p50"), 42.0);
    EXPECT_DOUBLE_EQ(flat.at("edge.one_h.p999"), 42.0);
    EXPECT_DOUBLE_EQ(flat.at("edge.one_d.variance"), 0.0);

    // Plain-text dump survives too.
    std::ostringstream text;
    g.dump(text);
    EXPECT_EQ(text.str().find("nan"), std::string::npos);
    EXPECT_EQ(text.str().find("-nan"), std::string::npos);
}

TEST(Histogram, PercentilesClampedAndOrdered)
{
    Histogram h;
    for (int i = 1; i <= 1000; ++i)
        h.sample(static_cast<double>(i));
    EXPECT_EQ(h.count(), 1000u);
    // q outside (0, 1) hits the exact extremes.
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 1000.0);
    // Interpolated percentiles are monotone, clamped to [min, max],
    // and in the right order of magnitude (log buckets).
    double p50 = h.p50(), p95 = h.p95(), p99 = h.p99();
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    EXPECT_GE(p50, h.min());
    EXPECT_LE(p99, h.max());
    EXPECT_GT(p50, 250.0);
    EXPECT_LT(p50, 800.0);
    EXPECT_GT(p99, 512.0);
}

TEST(Histogram, TailDominatesHighPercentiles)
{
    Histogram h;
    for (int i = 0; i < 900; ++i)
        h.sample(10.0);
    for (int i = 0; i < 100; ++i)
        h.sample(100000.0);
    // A 10% outlier tail: p50 stays near the mode, p95/p99 reach into
    // the outlier's bucket (the log-bucket "order of magnitude"
    // signal).
    EXPECT_LT(h.p50(), 20.0);
    EXPECT_GT(h.p95(), 1000.0);
    EXPECT_GT(h.p99(), 1000.0);
    EXPECT_LE(h.p99(), 100000.0);
}

TEST(Histogram, NegativeSamplesClampToZero)
{
    Histogram h;
    h.sample(-5.0);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_EQ(h.bucketCount(0), 1u);
}

TEST(Histogram, ResetClears)
{
    Histogram h;
    h.sample(7.0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.p95(), 0.0);
    EXPECT_EQ(h.bucketCount(3), 0u);
}

TEST(Histogram, AppearsInGroupDumps)
{
    Histogram h;
    h.sample(3.0);
    h.sample(300.0);
    StatGroup g("grp");
    g.addHistogram("qd", h, "queue delay");

    std::map<std::string, double> flat;
    g.flatten(flat);
    EXPECT_DOUBLE_EQ(flat.at("grp.qd"), h.mean());
    EXPECT_DOUBLE_EQ(flat.at("grp.qd.p50"), h.p50());
    EXPECT_DOUBLE_EQ(flat.at("grp.qd.p99"), h.p99());
}

TEST(StatGroup, FlattenProducesDottedNames)
{
    Counter c;
    c += 3;
    Distribution d;
    d.sample(7.0);

    StatGroup root("root");
    StatGroup child("child");
    root.addCounter("ops", c);
    child.addDistribution("lat", d);
    root.addChild(child);

    std::map<std::string, double> flat;
    root.flatten(flat);
    EXPECT_DOUBLE_EQ(flat.at("root.ops"), 3.0);
    EXPECT_DOUBLE_EQ(flat.at("root.child.lat"), 7.0);
}

TEST(StatGroup, DumpMentionsAllStats)
{
    Counter c;
    c += 9;
    StatGroup g("grp");
    g.addCounter("things", c, "number of things");
    std::ostringstream oss;
    g.dump(oss);
    std::string s = oss.str();
    EXPECT_NE(s.find("grp:"), std::string::npos);
    EXPECT_NE(s.find("things"), std::string::npos);
    EXPECT_NE(s.find("9"), std::string::npos);
    EXPECT_NE(s.find("number of things"), std::string::npos);
}

// ---------------------------------------------------------------------
// Every controller counter and latency distribution must be registered
// with the system stats tree: recovery campaigns read them through
// flatten() and a silently unregistered stat would make a
// fault run look healthier than it is.
// ---------------------------------------------------------------------

#include "core/system.hh"

TEST(StatRegistration, AllControllerStatsAppearInSystemTree)
{
    SystemParams p;
    p.n = 2;
    MulticubeSystem sys(p);

    std::map<std::string, double> flat;
    sys.statistics().flatten(flat);

    const char *counters[] = {
        "hits",         "misses",        "reissues",
        "invalidations", "snarfs",       "drops",
        "mlt_overflows", "victim_wbs",   "tset_fails",
        "sync_grants",  "sync_aborts",   "sync_joins",
        "watchdog_reissues",
    };
    const char *dists[] = {
        "watchdog_recovery_latency", "miss_latency", "read_latency",
        "write_latency",             "lock_latency",
    };

    auto count_suffix = [&](const std::string &suffix) {
        std::string want = "." + suffix;
        std::size_t hits = 0;
        for (const auto &[name, value] : flat) {
            if (name.size() > want.size()
                && name.compare(name.size() - want.size(), want.size(),
                                want) == 0) {
                ++hits;
            }
        }
        return hits;
    };

    // At least one instance per node (n^2 of them; some names are
    // also registered by the memory modules).
    for (const char *name : counters)
        EXPECT_GE(count_suffix(name), 4u) << name;
    for (const char *name : dists)
        EXPECT_GE(count_suffix(name), 4u) << name;

    // Memory-side robustness counter (the bounce path) as well.
    EXPECT_GE(count_suffix("bounces"), 2u);
}

TEST(StatRegistration, HistogramsAppearInSystemTree)
{
    SystemParams p;
    p.n = 2;
    MulticubeSystem sys(p);

    std::map<std::string, double> flat;
    sys.statistics().flatten(flat);

    // Controller latency/recovery, bus queueing and memory bounce-chain
    // histograms all contribute percentile entries.
    std::size_t latency = 0, queue = 0, bounce = 0, recovery = 0;
    for (const auto &[name, value] : flat) {
        if (name.find("latency_hist.p99") != std::string::npos)
            ++latency;
        if (name.find("queue_delay_hist.p95") != std::string::npos)
            ++queue;
        if (name.find("bounce_chain_hist.p50") != std::string::npos)
            ++bounce;
        if (name.find("watchdog_recovery_hist") != std::string::npos)
            ++recovery;
    }
    EXPECT_GE(latency, 4u);   // one per node
    EXPECT_GE(queue, 4u);     // two row + two column buses
    EXPECT_GE(bounce, 2u);    // one per column memory
    EXPECT_GE(recovery, 4u);
}
