/** @file
 * Fault-injection campaign: every injectable fault kind, swept over
 * grid sizes and workloads, with the coherence checker attached and
 * the controller watchdog providing recovery. Also covers the
 * eligibility rules, deterministic schedules, the zero-fault
 * transparency guarantee and the ProgressMonitor's stall diagnosis.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>

#include "core/checker.hh"
#include "core/system.hh"
#include "fault/fault_injector.hh"
#include "fault/progress_monitor.hh"
#include "proc/mix_workload.hh"
#include "proc/random_tester.hh"
#include "trace/metrics_sampler.hh"

using namespace mcube;

// ---------------------------------------------------------------------
// Eligibility rules
// ---------------------------------------------------------------------

namespace
{

BusOp
mk(TxnType txn, std::uint16_t params, bool has_data = false)
{
    BusOp op;
    op.txn = txn;
    op.params = params;
    op.addr = 7;
    op.origin = 1;
    op.hasData = has_data;
    return op;
}

} // namespace

TEST(FaultEligibility, RequestsAreDroppable)
{
    EXPECT_TRUE(FaultInjector::eligible(
        FaultKind::DropRequest, mk(TxnType::Read, op::Request)));
    EXPECT_TRUE(FaultInjector::eligible(
        FaultKind::DropRequest,
        mk(TxnType::ReadMod, op::Request | op::Memory)));
    EXPECT_TRUE(FaultInjector::eligible(
        FaultKind::DropRequest,
        mk(TxnType::Sync, op::Request | op::Direct)));
    // Non-request ops (table maintenance, writebacks, purges) are the
    // protocol's state-change machinery; dropping them is not a
    // recoverable fault model.
    EXPECT_FALSE(FaultInjector::eligible(
        FaultKind::DropRequest, mk(TxnType::WriteBack, op::Remove)));
    EXPECT_FALSE(FaultInjector::eligible(
        FaultKind::DropRequest,
        mk(TxnType::WriteBack, op::Update | op::Memory, true)));
    EXPECT_FALSE(FaultInjector::eligible(
        FaultKind::DropRequest, mk(TxnType::ReadMod, op::Insert)));
}

TEST(FaultEligibility, OnlyRecoverableRepliesAreDroppable)
{
    // Failure notices, SYNC queue acks and memory READ data (memory
    // stays valid) may vanish: a retry can re-create them.
    EXPECT_TRUE(FaultInjector::eligible(
        FaultKind::DropReply, mk(TxnType::Tset, op::Reply | op::Fail)));
    EXPECT_TRUE(FaultInjector::eligible(
        FaultKind::DropReply, mk(TxnType::Sync, op::Reply | op::Ack)));
    EXPECT_TRUE(FaultInjector::eligible(
        FaultKind::DropReply,
        mk(TxnType::Read, op::Reply | op::NoPurge, true)));

    // Ownership transfers are the only copy of the line.
    EXPECT_FALSE(FaultInjector::eligible(
        FaultKind::DropReply,
        mk(TxnType::ReadMod, op::Reply | op::Purge, true)));
    EXPECT_FALSE(FaultInjector::eligible(
        FaultKind::DropReply,
        mk(TxnType::Allocate, op::Reply | op::Purge | op::Ack)));
    EXPECT_FALSE(FaultInjector::eligible(
        FaultKind::DropReply,
        mk(TxnType::Sync, op::Reply | op::Insert, true)));
    // Owner-supplied READ data updates memory in flight; dropping it
    // would lose the writeback leg.
    EXPECT_FALSE(FaultInjector::eligible(
        FaultKind::DropReply,
        mk(TxnType::Read, op::Reply | op::Update, true)));
}

TEST(FaultEligibility, DelayTakesAnything)
{
    EXPECT_TRUE(FaultInjector::eligible(
        FaultKind::Delay, mk(TxnType::Read, op::Request)));
    EXPECT_TRUE(FaultInjector::eligible(
        FaultKind::Delay,
        mk(TxnType::ReadMod, op::Reply | op::Purge, true)));
    EXPECT_TRUE(FaultInjector::eligible(
        FaultKind::Delay, mk(TxnType::WriteBack, op::Remove)));
}

TEST(FaultEligibility, DuplicateSkipsAllocate)
{
    EXPECT_TRUE(FaultInjector::eligible(
        FaultKind::Duplicate, mk(TxnType::ReadMod, op::Request)));
    EXPECT_TRUE(FaultInjector::eligible(
        FaultKind::Duplicate, mk(TxnType::Tset, op::Request)));
    EXPECT_FALSE(FaultInjector::eligible(
        FaultKind::Duplicate, mk(TxnType::Allocate, op::Request)));
    EXPECT_FALSE(FaultInjector::eligible(
        FaultKind::Duplicate,
        mk(TxnType::ReadMod, op::Reply | op::Purge, true)));
}

// ---------------------------------------------------------------------
// Fault campaign matrix
// ---------------------------------------------------------------------

namespace
{

// gtest prints a parameter that has no PrintTo as a byte dump, and
// the ctest case names carry that dump; the padding is spelled out and
// zeroed so those names do not pick up stack garbage run to run.
struct Campaign
{
    Campaign(FaultKind kind, double prob, unsigned n, double tset,
             double syncOfLocks, std::uint64_t seed)
        : kind(kind), prob(prob), n(n), tset(tset),
          syncOfLocks(syncOfLocks), seed(seed)
    {}

    FaultKind kind;
    std::uint8_t pad0[7] = {};
    double prob;
    unsigned n;
    std::uint32_t pad1 = 0;
    double tset;        //!< lock-op fraction of the workload
    double syncOfLocks; //!< SYNC share of the lock ops
    std::uint64_t seed;
};
static_assert(sizeof(Campaign) == 48, "Campaign has hidden padding");

std::string
campaignName(const ::testing::TestParamInfo<Campaign> &info)
{
    const Campaign &c = info.param;
    std::string s = toString(c.kind);
    s += "_n" + std::to_string(c.n) + "_s" + std::to_string(c.seed);
    if (c.tset > 0)
        s += "_locks";
    if (c.syncOfLocks > 0)
        s += "_sync";
    return s;
}

FaultPlan
planFor(FaultKind kind, double prob, std::uint64_t seed)
{
    switch (kind) {
      case FaultKind::DropRequest:
        return FaultPlan::dropRequests(prob, seed);
      case FaultKind::DropReply:
        return FaultPlan::dropReplies(prob, seed);
      case FaultKind::Delay:
        return FaultPlan::delays(prob, 2000, seed);
      case FaultKind::Duplicate:
        return FaultPlan::duplicates(prob, seed);
      case FaultKind::Outage:
        return FaultPlan::outages(prob, 20'000, seed);
      case FaultKind::FailStopBus:
      case FaultKind::FailStopNode:
      case FaultKind::FailStopMemory:
        break;  // time-triggered, not probabilistic; no campaign here
    }
    return {};
}

} // namespace

class FaultCampaign : public ::testing::TestWithParam<Campaign>
{
};

TEST_P(FaultCampaign, TransactionsCompleteCoherently)
{
    const Campaign &c = GetParam();

    SystemParams p;
    p.n = c.n;
    p.seed = c.seed;
    p.ctrl.cache = {64, 4};
    p.ctrl.mlt = {64, 4};
    // Recovery machinery: without the watchdog a dropped request
    // hangs its node forever.
    p.ctrl.requestTimeoutTicks = 500'000;

    MulticubeSystem sys(p);
    CoherenceChecker checker(sys, 64);
    FaultInjector injector(sys, planFor(c.kind, c.prob, c.seed * 3 + 1));
    injector.regStats(sys.statistics());

    ProgressMonitor monitor(sys,
                            {/*checkIntervalTicks=*/5'000'000,
                             /*stallChecks=*/8});
    monitor.start();

    RandomTesterParams tp;
    tp.opsPerNode = 80;
    tp.numDataLines = 16;
    tp.pTset = c.tset;
    tp.pSyncOfLocks = c.syncOfLocks;
    tp.seed = c.seed * 77 + 5;
    RandomTester tester(sys, checker, tp);
    tester.start();

    sys.eventQueue().runUntil(3'000'000'000ull);
    EXPECT_TRUE(sys.drain(1'000'000'000ull));

    EXPECT_TRUE(tester.finished())
        << monitor.report() << sys.dumpPendingState();
    EXPECT_FALSE(monitor.stalled()) << monitor.report();
    EXPECT_EQ(tester.readFailures(), 0u);

    checker.fullSweep();
    for (const auto &s : checker.report())
        ADD_FAILURE() << s;
    EXPECT_EQ(checker.violations(), 0u);

    // The plan must actually have exercised its fault kind.
    EXPECT_GT(injector.totalInjections(), 0u);

    // Dropped ops only recover through the watchdog; prove the
    // recovery path fired (and measured its latency).
    if (c.kind == FaultKind::DropRequest
        || c.kind == FaultKind::DropReply) {
        std::uint64_t reissues = 0, recoveries = 0;
        for (NodeId id = 0; id < sys.numNodes(); ++id) {
            reissues += sys.node(id).watchdogReissues();
            recoveries +=
                sys.node(id).watchdogRecoveryLatency().count();
        }
        EXPECT_GT(reissues, 0u);
        EXPECT_GT(recoveries, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, FaultCampaign,
    ::testing::Values(
        // Each single fault kind at 5% on the acceptance 4x4 grid,
        // plain data workload.
        Campaign{FaultKind::DropRequest, 0.05, 4, 0.0, 0.0, 11},
        Campaign{FaultKind::DropReply, 0.05, 4, 0.0, 0.0, 12},
        Campaign{FaultKind::Delay, 0.05, 4, 0.0, 0.0, 13},
        Campaign{FaultKind::Duplicate, 0.05, 4, 0.0, 0.0, 14},
        // Lock-heavy workloads (test-and-set, then SYNC queue locks).
        Campaign{FaultKind::DropRequest, 0.05, 4, 0.2, 0.0, 21},
        Campaign{FaultKind::DropReply, 0.05, 4, 0.2, 0.5, 22},
        Campaign{FaultKind::Delay, 0.05, 4, 0.2, 0.5, 23},
        Campaign{FaultKind::Duplicate, 0.03, 4, 0.2, 0.0, 24},
        // Small grid: every node shares one row/column pair.
        Campaign{FaultKind::DropRequest, 0.05, 2, 0.2, 0.0, 31},
        Campaign{FaultKind::Duplicate, 0.05, 2, 0.0, 0.0, 32},
        // Bus outages: rare, but each one takes a whole bus down for
        // 20k ticks, swallowing every retry inside the window.
        Campaign{FaultKind::Outage, 0.002, 4, 0.0, 0.0, 41},
        Campaign{FaultKind::Outage, 0.005, 2, 0.2, 0.0, 42}),
    campaignName);

// ---------------------------------------------------------------------
// Zero-fault transparency
// ---------------------------------------------------------------------

namespace
{

std::map<std::string, double>
runWorkload(bool with_fault_layer)
{
    SystemParams p;
    p.n = 4;
    p.seed = 99;
    p.ctrl.cache = {64, 4};
    p.ctrl.mlt = {64, 4};
    if (with_fault_layer) {
        // Enabled but never firing: far above any latency this
        // workload can produce, so the watchdog never draws from the
        // RNG and never perturbs an op.
        p.ctrl.requestTimeoutTicks = 2'000'000'000;
    }

    MulticubeSystem sys(p);
    CoherenceChecker checker(sys, 64);

    std::unique_ptr<FaultInjector> injector;
    std::unique_ptr<ProgressMonitor> monitor;
    if (with_fault_layer) {
        FaultPlan plan;
        plan.specs.push_back({});  // one spec, prob 0: never fires
        injector = std::make_unique<FaultInjector>(sys, plan);
        monitor = std::make_unique<ProgressMonitor>(sys);
        monitor->start();
    }

    RandomTesterParams tp;
    tp.opsPerNode = 60;
    tp.pTset = 0.15;
    tp.seed = 4321;
    RandomTester tester(sys, checker, tp);
    tester.start();

    sys.eventQueue().runUntil(2'000'000'000ull);
    EXPECT_TRUE(tester.finished());
    sys.drain();
    EXPECT_EQ(checker.violations(), 0u);

    std::map<std::string, double> flat;
    sys.statistics().flatten(flat);
    return flat;
}

} // namespace

TEST(FaultTransparency, ZeroFaultsIsBitIdentical)
{
    auto plain = runWorkload(false);
    auto faulty = runWorkload(true);

    // Every op count and latency stat must match exactly: the fault
    // layer (hook consulted on every enqueue, idle watchdog armed on
    // every miss, progress monitor sampling) is observationally
    // inert when no fault fires.
    for (const auto &[name, value] : plain) {
        auto it = faulty.find(name);
        ASSERT_NE(it, faulty.end()) << name;
        EXPECT_EQ(it->second, value) << name;
    }
}

// ---------------------------------------------------------------------
// Deterministic schedules and scoping
// ---------------------------------------------------------------------

TEST(FaultSchedule, AtMatchesFiresExactlyAndReproducibly)
{
    auto run = [](std::vector<std::uint64_t> at) {
        SystemParams p;
        p.n = 2;
        p.seed = 7;
        p.ctrl.requestTimeoutTicks = 300'000;
        MulticubeSystem sys(p);
        CoherenceChecker checker(sys, 64);

        FaultPlan plan;
        FaultSpec spec;
        spec.kind = FaultKind::DropRequest;
        spec.atMatches = std::move(at);
        plan.specs.push_back(spec);
        FaultInjector injector(sys, plan);

        RandomTesterParams tp;
        tp.opsPerNode = 40;
        tp.seed = 55;
        RandomTester tester(sys, checker, tp);
        tester.start();
        sys.eventQueue().runUntil(2'000'000'000ull);
        sys.drain();
        EXPECT_TRUE(tester.finished());
        EXPECT_EQ(checker.violations(), 0u);
        return std::pair<std::uint64_t, std::uint64_t>(
            injector.requestsDropped(), injector.opsSeen());
    };

    auto [drops1, seen1] = run({3, 10, 11, 40});
    EXPECT_EQ(drops1, 4u);

    // Same schedule, same run: every derived number identical.
    auto [drops2, seen2] = run({3, 10, 11, 40});
    EXPECT_EQ(drops2, drops1);
    EXPECT_EQ(seen2, seen1);
}

TEST(FaultScope, SpecFiltersLimitWhereFaultsLand)
{
    SystemParams p;
    p.n = 2;
    p.seed = 3;
    p.ctrl.requestTimeoutTicks = 300'000;
    MulticubeSystem sys(p);
    CoherenceChecker checker(sys, 64);

    // Only READ requests, only on row 0, capped at 2 injections.
    FaultPlan plan;
    plan.seed = 17;
    FaultSpec spec;
    spec.kind = FaultKind::DropRequest;
    spec.prob = 1.0;
    spec.busDim = 0;
    spec.busIndex = 0;
    spec.txn = TxnType::Read;
    spec.maxInjections = 2;
    plan.specs.push_back(spec);
    FaultInjector injector(sys, plan);

    RandomTesterParams tp;
    tp.opsPerNode = 40;
    tp.seed = 5;
    RandomTester tester(sys, checker, tp);
    tester.start();
    sys.eventQueue().runUntil(2'000'000'000ull);
    sys.drain();

    EXPECT_TRUE(tester.finished());
    EXPECT_EQ(checker.violations(), 0u);
    EXPECT_EQ(injector.requestsDropped(), 2u);
    EXPECT_EQ(injector.totalInjections(), 2u);
}

// ---------------------------------------------------------------------
// Sustained outage vs. the watchdog
// ---------------------------------------------------------------------

// One long outage window (6x the watchdog timeout): every reissue
// inside the window is swallowed too, so recovery requires the
// backoff to keep growing until the bus answers again. The run must
// come back coherent (no livelock), the backoff must demonstrably
// have grown (a recovery took several timeout periods), and the
// recovery-latency histogram must have recorded it.
TEST(FaultOutage, WatchdogRecoversFromSustainedOutage)
{
    constexpr Tick timeout = 100'000;
    constexpr Tick window = 600'000;

    SystemParams p;
    p.n = 2;
    p.seed = 51;
    p.ctrl.requestTimeoutTicks = timeout;
    MulticubeSystem sys(p);
    CoherenceChecker checker(sys, 64);

    FaultPlan plan;
    FaultSpec spec;
    spec.kind = FaultKind::Outage;
    spec.atMatches = {0};  // first op anywhere downs its bus
    spec.outageTicks = window;
    plan.specs.push_back(spec);
    FaultInjector injector(sys, plan);
    injector.regStats(sys.statistics());

    RandomTesterParams tp;
    tp.opsPerNode = 40;
    tp.seed = 77;
    RandomTester tester(sys, checker, tp);
    tester.start();

    sys.eventQueue().runUntil(2'000'000'000ull);
    EXPECT_TRUE(sys.drain(1'000'000'000ull));

    // No livelock: everything completed and stayed coherent.
    EXPECT_TRUE(tester.finished()) << sys.dumpPendingState();
    EXPECT_EQ(tester.readFailures(), 0u);
    checker.fullSweep();
    EXPECT_EQ(checker.violations(), 0u);

    // The outage actually happened and swallowed traffic.
    EXPECT_EQ(injector.outagesOpened(), 1u);
    EXPECT_GT(injector.outageDrops(), 0u);

    std::uint64_t reissues = 0, histSamples = 0;
    double maxRecovery = 0.0;
    for (NodeId id = 0; id < sys.numNodes(); ++id) {
        reissues += sys.node(id).watchdogReissues();
        histSamples += sys.node(id).watchdogRecoveryHist().count();
        maxRecovery = std::max(
            maxRecovery, sys.node(id).watchdogRecoveryLatency().max());
    }
    EXPECT_GT(reissues, 0u);
    // Backoff growth: at least one transaction needed multiple
    // (doubling) waiting periods before its reissue got through.
    EXPECT_GE(maxRecovery, 3.0 * timeout);
    // The recovery-latency histogram recorded the episode.
    EXPECT_GT(histSamples, 0u);
}

// An outage must only discard ops whose loss the protocol recovers
// from; everything else is deferred past the window, never lost.
TEST(FaultOutage, UnrecoverableOpsAreDeferredNotDropped)
{
    SystemParams p;
    p.n = 2;
    p.seed = 61;
    p.ctrl.requestTimeoutTicks = 200'000;
    MulticubeSystem sys(p);
    CoherenceChecker checker(sys, 64);

    FaultPlan plan;
    plan.seed = 5;
    FaultSpec spec;
    spec.kind = FaultKind::Outage;
    spec.prob = 0.01;
    spec.outageTicks = 30'000;
    plan.specs.push_back(spec);
    FaultInjector injector(sys, plan);

    RandomTesterParams tp;
    tp.opsPerNode = 60;
    tp.pWrite = 0.5;  // ownership transfers to defer
    tp.seed = 19;
    RandomTester tester(sys, checker, tp);
    tester.start();

    sys.eventQueue().runUntil(3'000'000'000ull);
    EXPECT_TRUE(sys.drain(1'000'000'000ull));

    EXPECT_TRUE(tester.finished()) << sys.dumpPendingState();
    checker.fullSweep();
    EXPECT_EQ(checker.violations(), 0u);
    EXPECT_GT(injector.outagesOpened(), 0u);
    // Both window behaviours observed: safe ops discarded,
    // unrecoverable ones pushed past the window.
    EXPECT_GT(injector.outageDrops(), 0u);
    EXPECT_GT(injector.outageDeferrals(), 0u);
    EXPECT_EQ(injector.totalInjections(), injector.outagesOpened());
}

// ---------------------------------------------------------------------
// ProgressMonitor stall diagnosis
// ---------------------------------------------------------------------

TEST(ProgressMonitorTest, DiagnosesDeadlockWhenRecoveryIsDisabled)
{
    SystemParams p;
    p.n = 2;
    p.seed = 13;
    // No watchdog: a dropped request means that node hangs forever —
    // exactly the seed behaviour the monitor exists to diagnose.
    p.ctrl.requestTimeoutTicks = 0;
    MulticubeSystem sys(p);
    CoherenceChecker checker(sys, 64);

    FaultPlan plan = FaultPlan::dropRequests(1.0, 9);
    plan.specs[0].maxInjections = 4;
    FaultInjector injector(sys, plan);

    std::string cb_report;
    ProgressMonitor monitor(
        sys, {/*checkIntervalTicks=*/100'000, /*stallChecks=*/3},
        [&](const std::string &r) { cb_report = r; });
    monitor.start();

    RandomTesterParams tp;
    tp.opsPerNode = 20;
    tp.seed = 2;
    RandomTester tester(sys, checker, tp);
    tester.start();

    sys.eventQueue().runUntil(50'000'000ull);

    EXPECT_GT(injector.requestsDropped(), 0u);
    EXPECT_FALSE(tester.finished());
    EXPECT_TRUE(monitor.stalled());
    EXPECT_FALSE(cb_report.empty());
    // The diagnosis names the stuck transactions and the system state.
    EXPECT_NE(monitor.report().find("pending state"), std::string::npos);
    EXPECT_NE(monitor.report().find("requested"), std::string::npos);
}

TEST(ProgressMonitorTest, ChecksForTheWholeRunUnderTheEngine)
{
    // The monitor is a run-loop observer: under the parallel engine it
    // checks every period for the whole run (a self-scheduled check
    // that cancels itself on an empty sequential heap would quit at
    // its first idle check there), and neither it nor a sampler keeps
    // drain() from finishing.
    SystemParams p;
    p.n = 4;
    p.simThreads = 1;
    MulticubeSystem sys(p);
    ProgressMonitor monitor(
        sys, {/*checkIntervalTicks=*/100'000, /*stallChecks=*/4});
    monitor.start();
    std::ostringstream series;
    MetricsSampler sampler(sys, 100'000, series);
    sampler.start();

    MixParams mix;
    mix.requestsPerMs = 5.0;
    MixWorkload wl(sys, mix);
    wl.start();
    sys.run(5'000'000);
    wl.stop();
    EXPECT_TRUE(sys.drain());

    EXPECT_GE(monitor.checksRun(), 50u);
    EXPECT_FALSE(monitor.stalled()) << monitor.report();
    EXPECT_GE(sampler.samplesTaken(), 50u);
}

TEST(ProgressMonitorTest, StaysQuietOnAHealthyRun)
{
    SystemParams p;
    p.n = 2;
    p.seed = 21;
    MulticubeSystem sys(p);
    CoherenceChecker checker(sys, 64);

    ProgressMonitor monitor(
        sys, {/*checkIntervalTicks=*/100'000, /*stallChecks=*/3});
    monitor.start();

    RandomTesterParams tp;
    tp.opsPerNode = 30;
    tp.seed = 8;
    RandomTester tester(sys, checker, tp);
    tester.start();

    sys.eventQueue().runUntil(2'000'000'000ull);
    EXPECT_TRUE(sys.drain());

    EXPECT_TRUE(tester.finished());
    EXPECT_FALSE(monitor.stalled());
    EXPECT_GT(monitor.checksRun(), 0u);
    EXPECT_EQ(checker.violations(), 0u);
}
