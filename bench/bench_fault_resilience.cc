/**
 * @file
 * Experiment E7 — cost of robustness. Sweeps bus-level fault
 * probability from 0 to 10% for each injectable fault kind on a 4x4
 * machine running the random protocol tester with the transaction
 * watchdog enabled, and reports how throughput and completion latency
 * degrade as the recovery machinery (memory bounces, watchdog
 * reissues, relaunch caps) absorbs the faults.
 *
 * The interesting readings:
 *
 *   ops_per_ms        issued-transaction throughput in simulated time;
 *   mean_miss_ns      mean end-to-end miss latency (recovery rounds
 *                     inflate the tail first, then the mean);
 *   watchdog_reissues total recovery firings across all nodes;
 *   injections        faults actually applied by the plan;
 *   completed         1.0 iff every transaction finished and the
 *                     coherence checker saw zero violations — the
 *                     resilience claim itself.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/checker.hh"
#include "core/system.hh"
#include "fault/fault_injector.hh"
#include "fault/reconfig.hh"
#include "proc/random_tester.hh"

using namespace mcube;
using namespace mcube::bench;

namespace
{

/**
 * The resilience trajectory is read out of the stat tree
 * (watchdog recovery counters, memory bounces, injector totals). A
 * stat rename would not fail the build — it would just blank those
 * columns in BENCH_fault_resilience.json and the dashboard would show
 * a flat zero "recovery cost" forever. Abort loudly instead.
 */
void
requireRecoveryStats(const Metrics &stats)
{
    static const char *const required[] = {
        ".watchdog_reissues",
        ".watchdog_recovery_latency",
        ".watchdog_recovery_hist",
        ".bounces",
        "fault.ops_seen",
    };
    for (const char *needle : required) {
        bool found = false;
        for (const auto &kv : stats) {
            if (kv.first.find(needle) != std::string::npos) {
                found = true;
                break;
            }
        }
        if (!found) {
            std::fprintf(stderr,
                         "bench_fault_resilience: recovery stat '%s' "
                         "missing from the flattened stat tree; the "
                         "BENCH json would silently lose the "
                         "resilience trajectory\n",
                         needle);
            std::abort();
        }
    }
}

FaultPlan
planFor(int kind, double prob)
{
    switch (kind) {
      case 0:
        return FaultPlan::dropRequests(prob, 7);
      case 1:
        return FaultPlan::dropReplies(prob, 7);
      case 2:
        return FaultPlan::delays(prob, 2000, 7);
      default:
        return FaultPlan::duplicates(prob, 7);
    }
}

Metrics
runCampaign(int kind, int pct)
{
    const double prob = static_cast<double>(pct) / 100.0;
    SystemParams p;
    p.n = 4;
    p.seed = 1701;
    p.ctrl.cache = {64, 4};
    p.ctrl.mlt = {64, 4};
    p.ctrl.requestTimeoutTicks = 500'000;
    MulticubeSystem sys(p);
    CoherenceChecker checker(sys, 128);
    FaultInjector injector(sys, planFor(kind, prob));
    injector.regStats(sys.statistics());

    RandomTesterParams tp;
    tp.opsPerNode = 120;
    tp.pTset = 0.1;
    tp.seed = 23;
    RandomTester tester(sys, checker, tp);
    tester.start();

    sys.eventQueue().runUntil(10'000'000'000ull);
    sys.drain(1'000'000'000ull);

    std::uint64_t reissues = 0, misses = 0;
    double meanMissNs = 0.0;
    for (NodeId id = 0; id < sys.numNodes(); ++id) {
        reissues += sys.node(id).watchdogReissues();
        const Distribution &d = sys.node(id).missLatency();
        meanMissNs += d.mean() * static_cast<double>(d.count());
        misses += d.count();
    }
    if (misses > 0)
        meanMissNs /= static_cast<double>(misses);
    std::uint64_t bounces = 0;
    for (unsigned c = 0; c < sys.n(); ++c)
        bounces += sys.memory(c).bounces();
    const bool completed = tester.finished()
                        && checker.violations() == 0
                        && tester.readFailures() == 0;

    // Carry the whole flattened stat tree (watchdog recovery stats,
    // per-kind injection counters, memory bounces) into the BENCH
    // json alongside the headline metrics.
    std::map<std::string, double> stats;
    sys.statistics().flatten(stats);
    Metrics metrics(stats.begin(), stats.end());
    requireRecoveryStats(metrics);
    const double ms = static_cast<double>(sys.eventQueue().now()) / 1e6;
    metrics["ops_per_ms"] =
        ms > 0 ? static_cast<double>(tester.opsIssued()) / ms : 0.0;
    metrics["mean_miss_ns"] = meanMissNs;
    metrics["watchdog_reissues"] = static_cast<double>(reissues);
    metrics["mem_bounces"] = static_cast<double>(bounces);
    metrics["injections"] =
        static_cast<double>(injector.totalInjections());
    metrics["completed"] = completed ? 1.0 : 0.0;
    // Echo the seeds so every published point is reproducible from
    // its artifact alone (cf. sweep_cli's config header).
    metrics["sys_seed"] = 1701;
    metrics["tester_seed"] = 23;
    metrics["plan_seed"] = 7;
    metrics["fault_kind"] = static_cast<double>(kind);
    metrics["fault_prob"] = prob;
    return metrics;
}

// ---------------------------------------------------------------------
// Experiment E8 — graceful degradation under fail-stop faults.
// A 4x4 machine loses a row bus, a node, a memory module — or all
// three, staggered — mid-campaign, and the degradation machinery
// (watchdog detection, quarantine, epoch-based reconfiguration)
// carries the surviving nodes to completion. The headline readings:
//
//   availability            1 - aborted/issued transactions: the
//                           fraction of offered work the degraded
//                           machine still completed;
//   time_to_detect_*        kill -> detection latency per kill (ticks);
//   time_to_reconfigure_*   kill -> epoch-cutover latency per kill;
//   data_loss_lines         Modified lines lost by abrupt kills
//                           (graceful retirement scrubs: exactly 0).
//
// Every scenario is fixed-seed and single-threaded deterministic:
// reruns produce bit-identical BENCH json values.
// ---------------------------------------------------------------------

struct FailStopScenario
{
    const char *label;
    bool graceful;
    bool bus, node, mem;
};

const std::vector<FailStopScenario> kFailStops = {
    {"failstop_bus_graceful", true, true, false, false},
    {"failstop_bus_abrupt", false, true, false, false},
    {"failstop_node_graceful", true, false, true, false},
    {"failstop_node_abrupt", false, false, true, false},
    {"failstop_mem_graceful", true, false, false, true},
    {"failstop_mem_abrupt", false, false, false, true},
    {"failstop_triple_graceful", true, true, true, true},
    {"failstop_triple_abrupt", false, true, true, true},
};

/**
 * The degraded-mode contract: with a row bus, node or memory module
 * fail-stopped, every surviving transaction completes under a clean
 * checker, at least 99% of offered transactions complete, and a
 * graceful retirement (which scrubs every Modified line before going
 * dark) loses no data. A point that breaks it aborts the bench.
 */
void
requireDegradedContract(const FailStopScenario &sc, const Metrics &m)
{
    const double availability = m.at("availability");
    const double lost = m.at("data_loss_lines");
    const char *broken = nullptr;
    if (m.at("completed") != 1.0)
        broken = "not every surviving transaction completed cleanly";
    else if (availability < 0.99)
        broken = "availability below 0.99";
    else if (sc.graceful && lost != 0.0)
        broken = "graceful retirement lost Modified lines";
    if (!broken)
        return;
    std::fprintf(stderr,
                 "bench_fault_resilience: %s breaks the degraded-mode "
                 "contract: %s (availability %.4f, data_loss_lines "
                 "%.0f)\n",
                 sc.label, broken, availability, lost);
    std::abort();
}

FaultPlan
failStopPlanFor(const FailStopScenario &sc)
{
    // Staggered mid-run kills: row bus 2 first, then node 13 (not on
    // the dead row), then memory column 0 — the acceptance campaign.
    FaultPlan plan;
    plan.seed = 7;
    if (sc.bus)
        plan.specs.push_back(
            FaultPlan::failStopBus(0, 2, 400'000, sc.graceful)
                .specs[0]);
    if (sc.node)
        plan.specs.push_back(
            FaultPlan::failStopNode(13, 900'000, sc.graceful)
                .specs[0]);
    if (sc.mem)
        plan.specs.push_back(
            FaultPlan::failStopMemory(0, 1'400'000, sc.graceful)
                .specs[0]);
    return plan;
}

Metrics
runFailStopCampaign(const FailStopScenario &sc)
{
    SystemParams p;
    p.n = 4;
    p.seed = 1701;
    p.ctrl.cache = {64, 4};
    p.ctrl.mlt = {64, 4};
    p.ctrl.requestTimeoutTicks = 300'000;
    MulticubeSystem sys(p);
    CoherenceChecker checker(sys, 128);
    FaultInjector injector(sys, failStopPlanFor(sc));
    injector.regStats(sys.statistics());

    // Bench-scale detection thresholds (cf. tests/reconfig_test.cc):
    // low enough that detection and cutover land well inside the run.
    ReconfigParams rp;
    rp.escalationThreshold = 2;
    rp.detectThreshold = 2;
    rp.drainTicks = 50'000;
    rp.detectTimeoutTicks = 1'500'000;
    ReconfigurationManager mgr(sys, failStopPlanFor(sc), &checker, rp);
    mgr.regStats(sys.statistics());

    RandomTesterParams tp;
    tp.opsPerNode = 250;
    tp.pTset = 0.1;
    tp.seed = 23;
    RandomTester tester(sys, checker, tp);
    tester.setAddrFilter([&mgr](NodeId n, Addr a) {
        return !mgr.requestRoutable(n, a);
    });
    tester.start();

    sys.eventQueue().runUntil(10'000'000'000ull);
    sys.drain(1'000'000'000ull);

    const bool completed = tester.finished()
                        && checker.violations() == 0
                        && tester.readFailures() == 0;

    std::map<std::string, double> stats;
    sys.statistics().flatten(stats);
    Metrics metrics(stats.begin(), stats.end());
    const std::uint64_t issued = tester.opsIssued();
    const std::uint64_t aborted = tester.opsAborted();
    metrics["availability"] =
        issued > 0
            ? 1.0 - static_cast<double>(aborted)
                        / static_cast<double>(issued)
            : 0.0;
    metrics["ops_issued"] = static_cast<double>(issued);
    metrics["ops_aborted"] = static_cast<double>(aborted);
    metrics["kills"] = static_cast<double>(mgr.kills());
    metrics["detections"] = static_cast<double>(mgr.detections());
    metrics["epochs"] = static_cast<double>(mgr.epoch());
    metrics["data_loss_lines"] =
        static_cast<double>(mgr.dataLossLines());
    metrics["phantom_repairs"] =
        static_cast<double>(mgr.phantomRepairs());
    // Per-kill latency histograms, plus mean/max for dashboards.
    auto emitLatencies = [&metrics](const char *prefix,
                                    const std::vector<Tick> &lat) {
        double sum = 0.0, mx = 0.0;
        for (std::size_t i = 0; i < lat.size(); ++i) {
            double v = static_cast<double>(lat[i]);
            metrics[std::string(prefix) + "_" + std::to_string(i)] = v;
            sum += v;
            if (v > mx)
                mx = v;
        }
        metrics[std::string(prefix) + "_count"] =
            static_cast<double>(lat.size());
        metrics[std::string(prefix) + "_mean"] =
            lat.empty() ? 0.0 : sum / static_cast<double>(lat.size());
        metrics[std::string(prefix) + "_max"] = mx;
    };
    emitLatencies("time_to_detect", mgr.detectLatencies());
    emitLatencies("time_to_reconfigure", mgr.reconfigureLatencies());
    const double ms = static_cast<double>(sys.eventQueue().now()) / 1e6;
    metrics["ops_per_ms"] =
        ms > 0 ? static_cast<double>(issued) / ms : 0.0;
    metrics["completed"] = completed ? 1.0 : 0.0;
    metrics["violations"] =
        static_cast<double>(checker.violations());
    metrics["sys_seed"] = 1701;
    metrics["tester_seed"] = 23;
    metrics["graceful"] = sc.graceful ? 1.0 : 0.0;
    requireDegradedContract(sc, metrics);
    return metrics;
}

} // namespace

int
main(int argc, char **argv)
{
    Reporter report(argc, argv, "fault_resilience");
    for (const FailStopScenario &sc : kFailStops) {
        report.point(sc.label,
                     {"availability", "time_to_detect_mean",
                      "time_to_reconfigure_mean", "data_loss_lines",
                      "completed"},
                     [&] { return runFailStopCampaign(sc); });
    }
    // kind: 0 drop requests, 1 drop replies, 2 delays, 3 duplicates.
    for (int kind : {0, 1, 2, 3}) {
        for (int pct : {0, 1, 2, 5, 10}) {
            report.point("kind" + std::to_string(kind) + "_p"
                             + std::to_string(pct),
                         {"ops_per_ms", "mean_miss_ns",
                          "watchdog_reissues", "mem_bounces",
                          "injections", "completed"},
                         [&] { return runCampaign(kind, pct); });
        }
    }
    return 0;
}
