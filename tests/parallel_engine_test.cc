/** @file
 * Determinism contract of the parallel single-simulation engine.
 *
 * The engine's promise (docs/PERFORMANCE.md) is that a fixed-seed run
 * produces bit-identical simulated results for ANY
 * SystemParams::simThreads >= 1: the canonical window schedule —
 * per-lane (tick, seq) order inside phases, (tick, source lane,
 * source order) at the cross-lane merges — is a function of the
 * configuration alone, never of the worker count or of host
 * scheduling. These tests run the same mixed
 * workload with 1, 2, 4 and 8 workers and require the *entire*
 * flattened stat tree, the final tick and the event count to match
 * the 1-worker run exactly. The tsan CI job runs this binary too, so
 * the same sweep doubles as the engine's data-race gate.
 *
 * Also covered: observer composition (profiler + tracer active under
 * 1 and 4 workers must leave results untouched and export the same
 * trace bit-for-bit; a metrics sampler and a progress monitor must
 * leave every simulated result untouched under both engines), the
 * hard-error contract for past-tick
 * scheduling in parallel mode (a death test — sequentially the queue
 * clamps and counts instead), drain termination, telemetry
 * consistency and the bounds of the Amdahl projection.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "core/checker.hh"
#include "core/system.hh"
#include "fault/progress_monitor.hh"
#include "proc/mix_workload.hh"
#include "proc/random_tester.hh"
#include "sim/parallel_engine.hh"
#include "sim/profiler.hh"
#include "trace/metrics_sampler.hh"
#include "trace/trace_event.hh"

using namespace mcube;

namespace
{

struct RunOutcome
{
    std::map<std::string, double> stats;
    Tick endTick = 0;
    std::uint64_t events = 0;
    bool drained = false;
};

/** A fixed-seed mix run. A non-null @p jsonl attaches a MetricsSampler
 *  (5,000-tick period, series written to *jsonl) and a ProgressMonitor
 *  for the whole run, drain included. */
RunOutcome
runMix(unsigned n, unsigned threads, std::uint64_t seed, double rate,
       Tick sim_ticks, std::string *jsonl = nullptr)
{
    SystemParams sp;
    sp.n = n;
    sp.seed = seed;
    sp.simThreads = threads;
    MulticubeSystem sys(sp);

    std::ostringstream series;
    MetricsSampler sampler(sys, 5'000, series);
    ProgressMonitor monitor(sys);
    if (jsonl) {
        sampler.start();
        monitor.start();
    }

    MixParams mix;
    mix.requestsPerMs = rate;
    mix.seed = seed + 1;
    MixWorkload wl(sys, mix);
    wl.start();
    sys.run(sim_ticks);
    wl.stop();

    RunOutcome out;
    out.drained = sys.drain();
    sys.statistics().flatten(out.stats);
    out.endTick = sys.eventQueue().now();
    out.events = sys.eventQueue().eventsExecuted();
    if (jsonl) {
        sampler.stop();
        *jsonl = series.str();
    }
    return out;
}

void
expectIdentical(const RunOutcome &ref, const RunOutcome &got,
                unsigned threads)
{
    EXPECT_TRUE(got.drained) << threads << " workers: did not drain";
    EXPECT_EQ(ref.endTick, got.endTick) << threads << " workers";
    EXPECT_EQ(ref.events, got.events) << threads << " workers";
    ASSERT_EQ(ref.stats.size(), got.stats.size())
        << threads << " workers: stat tree shape changed";
    auto a = ref.stats.begin();
    auto b = got.stats.begin();
    for (; a != ref.stats.end(); ++a, ++b) {
        EXPECT_EQ(a->first, b->first) << threads << " workers";
        // Bit-identical contract: exact double equality, no epsilon.
        EXPECT_EQ(a->second, b->second)
            << threads << " workers diverge at " << a->first;
    }
}

/** runMix with the host self-profiler AND the transaction tracer
 *  active for the whole run, as --profile-out/--trace-out would. */
struct ObservedOutcome
{
    RunOutcome run;
    std::string traceJson;
    std::uint64_t profEvents = 0;
};

ObservedOutcome
runMixObserved(unsigned n, unsigned threads, std::uint64_t seed,
               double rate, Tick sim_ticks)
{
    SimProfiler prof;
    TransactionTracer tracer;
    prof.activate();
    tracer.activate();

    ObservedOutcome out;
    out.run = runMix(n, threads, seed, rate, sim_ticks);

    tracer.deactivate();
    prof.deactivate();
    std::ostringstream os;
    tracer.exportChromeJson(os);
    out.traceJson = os.str();
    out.profEvents = prof.eventCount();
    return out;
}

} // namespace

TEST(ParallelEngine, BitIdenticalAcrossWorkerCounts)
{
    const RunOutcome ref = runMix(8, 1, 0xC0FFEE, 40.0, 400'000);
    EXPECT_TRUE(ref.drained);
    EXPECT_GT(ref.events, 0u);
    for (unsigned threads : {2u, 4u, 8u}) {
        const RunOutcome got =
            runMix(8, threads, 0xC0FFEE, 40.0, 400'000);
        expectIdentical(ref, got, threads);
    }
}

TEST(ParallelEngine, BitIdenticalOnSmallGridHighRate)
{
    // n=4 with 8 requested workers exercises the clamp to n lanes per
    // phase; the high rate keeps every lane busy in most windows.
    const RunOutcome ref = runMix(4, 1, 987654321, 120.0, 300'000);
    for (unsigned threads : {2u, 4u, 8u}) {
        const RunOutcome got =
            runMix(4, threads, 987654321, 120.0, 300'000);
        expectIdentical(ref, got, threads);
    }
}

TEST(ParallelEngine, ObserversComposeAndPreserveDeterminism)
{
    // Profiling and tracing must neither perturb simulated results
    // nor depend on the worker count: while either is active the
    // engine runs every lane on the observing thread, and the Chrome
    // export orders records by tick (docs/PERFORMANCE.md,
    // "Observers"). Three-way check on one fixed-seed config:
    //
    //  - observers ON vs OFF: identical stat tree (1 worker);
    //  - observers ON, 1 vs 4 workers: identical stat tree AND a
    //    bit-identical Chrome trace export;
    //  - both observers actually saw the run (no silent no-op pass).
    //
    // The tsan CI job runs this binary, so the same sweep doubles as
    // the data-race gate for the observed (inline) phase path.
    const RunOutcome ref = runMix(8, 1, 0xD15EA5E, 40.0, 300'000);
    EXPECT_TRUE(ref.drained);

    const ObservedOutcome obs1 =
        runMixObserved(8, 1, 0xD15EA5E, 40.0, 300'000);
    const ObservedOutcome obs4 =
        runMixObserved(8, 4, 0xD15EA5E, 40.0, 300'000);

    expectIdentical(ref, obs1.run, 1);
    expectIdentical(ref, obs4.run, 4);

    EXPECT_GT(obs1.profEvents, 0u);
    EXPECT_GT(obs4.profEvents, 0u);
    ASSERT_NE(obs1.traceJson.find("\"ph\":\"i\""), std::string::npos);
    // Bit-identical contract: the canonically merged trace stream is a
    // function of the configuration, not of the worker count.
    EXPECT_EQ(obs1.traceJson, obs4.traceJson);
}

TEST(ParallelEngine, PeriodicObserversDoNotPerturbTheSchedule)
{
    // The metrics sampler and the progress monitor are run-loop
    // observers (EventQueue::observe), not timer events, so attaching
    // them changes nothing simulated under either engine: a timer
    // event on the serial lane would move every later window boundary
    // of the engine's empty-stretch skip. The sampler's series is a
    // function of the configuration, not of the worker count.
    std::string series[3];
    const unsigned threads[] = {0, 1, 4};
    for (unsigned i = 0; i < 3; ++i) {
        const RunOutcome bare = runMix(8, threads[i], 3, 25.0, 1'000'000);
        const RunOutcome watched =
            runMix(8, threads[i], 3, 25.0, 1'000'000, &series[i]);
        EXPECT_TRUE(bare.drained);
        expectIdentical(bare, watched, threads[i]);
        EXPECT_NE(series[i].find("\"stats\":"), std::string::npos);
    }
    EXPECT_EQ(series[1], series[2]);
}

TEST(ParallelEngine, CheckerComposesWithBarrierChecks)
{
    // The coherence checker's per-op invariants read live global
    // state, so under the window-phased engine they run from a
    // window-end observer, once the window's commits have all landed
    // in the golden history (checker.cc). A mid-window check would
    // see e.g. a home-lane write hit's token in the cache before its
    // commit deferral reaches the history and raise a false I3. Gate: a
    // watchdog-armed random campaign under the checker reports zero
    // violations at every worker count and stays bit-identical.
    auto campaign = [](unsigned threads) {
        SystemParams sp;
        sp.n = 8;
        sp.seed = 0xFEEDFACE;
        sp.simThreads = threads;
        sp.ctrl.requestTimeoutTicks = 500'000;
        MulticubeSystem sys(sp);
        CoherenceChecker checker(sys, 64);
        RandomTesterParams tp;
        tp.opsPerNode = 60;
        tp.seed = 42;
        RandomTester tester(sys, checker, tp);
        tester.start();
        sys.run(3'000'000);
        sys.drain();
        EXPECT_TRUE(tester.finished()) << "threads=" << threads;
        EXPECT_EQ(tester.readFailures(), 0u) << "threads=" << threads;
        EXPECT_EQ(checker.violations(), 0u)
            << "threads=" << threads << " first: "
            << (checker.report().empty() ? std::string("-")
                                         : checker.report().front());
        checker.fullSweep(true);
        EXPECT_EQ(checker.violations(), 0u)
            << "post-drain strict sweep, threads=" << threads;
        return tester.resultHash();
    };
    const std::uint64_t h1 = campaign(1);
    const std::uint64_t h4 = campaign(4);
    EXPECT_EQ(h1, h4);
}

TEST(ParallelEngine, DrainTerminatesAndSystemQuiesces)
{
    SystemParams sp;
    sp.n = 4;
    sp.simThreads = 4;
    MulticubeSystem sys(sp);
    MixParams mix;
    mix.requestsPerMs = 50.0;
    MixWorkload wl(sys, mix);
    wl.start();
    sys.run(200'000);
    wl.stop();
    EXPECT_TRUE(sys.drain());
    EXPECT_TRUE(sys.eventQueue().empty());
    for (unsigned i = 0; i < sp.n; ++i) {
        EXPECT_EQ(sys.rowBus(i).pendingOps(), 0u);
        EXPECT_EQ(sys.colBus(i).pendingOps(), 0u);
    }
}

TEST(ParallelEngine, TelemetryAccountsForEveryEvent)
{
    SystemParams sp;
    sp.n = 4;
    sp.simThreads = 2;
    MulticubeSystem sys(sp);
    MixParams mix;
    mix.requestsPerMs = 50.0;
    MixWorkload wl(sys, mix);
    wl.start();
    sys.run(200'000);
    wl.stop();
    ASSERT_TRUE(sys.drain());

    ASSERT_NE(sys.parallelEngine(), nullptr);
    const ParallelEngine::Telemetry t =
        sys.parallelEngine()->telemetry();
    EXPECT_GT(t.events, 0u);
    EXPECT_EQ(t.events, t.serialEvents + t.rowEvents + t.colEvents);
    std::uint64_t lane_sum = 0;
    for (std::uint64_t e : t.laneEvents)
        lane_sum += e;
    EXPECT_EQ(t.events, lane_sum);
    std::uint64_t worker_sum = t.serialEvents; // serial runs unlogged
    for (std::uint64_t e : t.workerEvents)
        worker_sum += e;
    EXPECT_EQ(t.events, worker_sum);
    EXPECT_GT(t.windows, 0u);
    EXPECT_EQ(t.workersEffective, 2u);
    const double proj = t.projectedSpeedup(4);
    EXPECT_GE(proj, 1.0);
    EXPECT_LE(proj, 4.0);
    EXPECT_EQ(t.events, sys.eventQueue().eventsExecuted());
}

TEST(ParallelEngine, ProjectedSpeedupIsBoundedAndMonotone)
{
    // Hand-built telemetry spanning the regimes the projection meets:
    // mostly parallel and balanced, half serial, and an imbalance
    // above 2, where the honest 2-worker projection is a net loss.
    struct Case
    {
        std::uint64_t serialNs, rowNs, colNs;
        std::vector<std::uint64_t> laneEvents;  // [0] is the serial lane
    };
    const Case cases[] = {
        {100, 450, 450, {10, 50, 50, 50, 50}},
        {500, 250, 250, {10, 40, 60, 50, 50}},
        {50, 900, 50, {10, 1000, 10, 10, 10}},
    };
    for (const Case &c : cases) {
        ParallelEngine::Telemetry t;
        t.serialNs = c.serialNs;
        t.rowPhaseNs = c.rowNs;
        t.colPhaseNs = c.colNs;
        t.laneEvents = c.laneEvents;
        // k=1 is pinned to exactly 1.0 and excluded from the monotone
        // sweep: with imbalance > 2 the 2-worker projection is < 1.
        EXPECT_DOUBLE_EQ(t.projectedSpeedup(1), 1.0);
        double prev = 0.0;
        for (unsigned k : {2u, 4u, 8u, 16u, 32u}) {
            const double sp = t.projectedSpeedup(k);
            EXPECT_GE(sp, prev * (1.0 - 1e-12)) << "k=" << k;
            EXPECT_LE(sp, static_cast<double>(k) + 1e-9) << "k=" << k;
            prev = sp;
        }
    }
}

TEST(ParallelEngine, EmptyStretchesAreSkippedNotStepped)
{
    // Two events half a simulated second apart: the window loop must
    // jump the gap instead of grinding through ~10^4 empty windows.
    SystemParams sp;
    sp.n = 4;
    sp.simThreads = 2;
    MulticubeSystem sys(sp);
    EventQueue &eq = sys.eventQueue();
    unsigned fired = 0;
    eq.schedule(100, [&] { ++fired; });
    eq.schedule(500'000'000, [&] { ++fired; });
    eq.runUntil(500'000'000);
    EXPECT_EQ(fired, 2u);
    EXPECT_EQ(eq.now(), 500'000'000u);
    ASSERT_NE(sys.parallelEngine(), nullptr);
    EXPECT_LT(sys.parallelEngine()->telemetry().windows, 16u);
}

TEST(ParallelEngineDeathTest, PastTickScheduleAbortsInParallelMode)
{
    // The sequential queue clamps past-tick schedules (counted in
    // sched_past_tick); the parallel engine must abort instead — a
    // clamp there would silently mask a cross-shard causality
    // violation. Death tests fork, so use the threadsafe style (the
    // engine owns a worker pool).
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            SystemParams sp;
            sp.n = 4;
            sp.simThreads = 1;
            MulticubeSystem sys(sp);
            EventQueue &eq = sys.eventQueue();
            eq.schedule(1'000, [] {});
            eq.runUntil(10'000);
            eq.schedule(5'000, [] {}); // now() is 10'000: the past
        },
        "scheduled in the past");
}
