#include "fuzz/campaign.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "core/checker.hh"
#include "core/system.hh"
#include "fault/progress_monitor.hh"
#include "fault/reconfig.hh"
#include "run/crash_handler.hh"
#include "run/provenance.hh"
#include "run/work_journal.hh"
#include "sim/random.hh"

namespace mcube::fuzz
{

// ---------------------------------------------------------------------
// Run configuration
// ---------------------------------------------------------------------

Json
toJson(const RunConfig &cfg)
{
    Json j = Json::object();
    j.set("n", cfg.n);
    j.set("sys_seed", cfg.sysSeed);
    j.set("request_timeout_ticks", cfg.requestTimeoutTicks);
    j.set("cache_sets", cfg.cacheSets);
    j.set("cache_ways", cfg.cacheWays);
    j.set("mlt_sets", cfg.mltSets);
    j.set("mlt_ways", cfg.mltWays);
    j.set("full_check_interval", cfg.fullCheckInterval);
    j.set("max_ticks", cfg.maxTicks);
    j.set("drain_ticks", cfg.drainTicks);
    j.set("snoop_filter", Json(cfg.snoopFilter));
    j.set("tester", mcube::toJson(cfg.tester));
    j.set("fault_plan", mcube::toJson(cfg.plan));
    return j;
}

bool
runConfigFromJson(const Json &j, RunConfig &out)
{
    if (!j.isObject())
        return false;
    RunConfig d;
    out.n = static_cast<unsigned>(j.u64("n", d.n));
    out.sysSeed = j.u64("sys_seed", d.sysSeed);
    out.requestTimeoutTicks =
        j.u64("request_timeout_ticks", d.requestTimeoutTicks);
    out.cacheSets = static_cast<unsigned>(j.u64("cache_sets", d.cacheSets));
    out.cacheWays = static_cast<unsigned>(j.u64("cache_ways", d.cacheWays));
    out.mltSets = static_cast<unsigned>(j.u64("mlt_sets", d.mltSets));
    out.mltWays = static_cast<unsigned>(j.u64("mlt_ways", d.mltWays));
    out.fullCheckInterval =
        j.u64("full_check_interval", d.fullCheckInterval);
    out.maxTicks = j.u64("max_ticks", d.maxTicks);
    out.drainTicks = j.u64("drain_ticks", d.drainTicks);
    out.snoopFilter = j.flag("snoop_filter", d.snoopFilter);
    if (out.n == 0)
        return false;
    if (j.has("tester")
        && !randomTesterParamsFromJson(j.at("tester"), out.tester))
        return false;
    if (j.has("fault_plan")
        && !faultPlanFromJson(j.at("fault_plan"), out.plan))
        return false;
    return true;
}

// ---------------------------------------------------------------------
// Failure kinds
// ---------------------------------------------------------------------

const char *
toString(FailureKind kind)
{
    switch (kind) {
      case FailureKind::None:
        return "none";
      case FailureKind::CheckerViolation:
        return "checker_violation";
      case FailureKind::OracleFailure:
        return "oracle_failure";
      case FailureKind::Stall:
        return "stall";
      case FailureKind::DrainTimeout:
        return "drain_timeout";
    }
    return "?";
}

bool
failureKindFromString(const std::string &name, FailureKind &out)
{
    for (auto k : {FailureKind::None, FailureKind::CheckerViolation,
                   FailureKind::OracleFailure, FailureKind::Stall,
                   FailureKind::DrainTimeout}) {
        if (name == toString(k)) {
            out = k;
            return true;
        }
    }
    return false;
}

// ---------------------------------------------------------------------
// Single run
// ---------------------------------------------------------------------

RunResult
runOnce(const RunConfig &cfg, const run::Heartbeat *heartbeat)
{
    SystemParams p;
    p.n = cfg.n;
    p.seed = cfg.sysSeed;
    p.ctrl.cache = {cfg.cacheSets, cfg.cacheWays};
    p.ctrl.mlt = {cfg.mltSets, cfg.mltWays};
    p.ctrl.requestTimeoutTicks = cfg.requestTimeoutTicks;
    p.ctrl.snoopFilter = cfg.snoopFilter;

    MulticubeSystem sys(p);
    CoherenceChecker checker(sys, cfg.fullCheckInterval);
    FaultInjector injector(sys, cfg.plan);
    injector.regStats(sys.statistics());

    RandomTester tester(sys, checker, cfg.tester);

    // Plans with fail-stop specs get the full degradation machinery:
    // kills execute at their tick, detection rides the watchdog, and
    // the tester steers surviving agents off quarantined lines.
    std::unique_ptr<ReconfigurationManager> reconfig;
    if (ReconfigurationManager::planNeedsReconfig(cfg.plan)) {
        reconfig = std::make_unique<ReconfigurationManager>(
            sys, cfg.plan, &checker);
        reconfig->regStats(sys.statistics());
        ReconfigurationManager *mgr = reconfig.get();
        tester.setAddrFilter([mgr](NodeId n, Addr a) {
            return !mgr->requestRoutable(n, a);
        });
    }

    // Should this run die abnormally, the crash handler dumps the
    // pending-transaction state of the system that was live.
    run::ScopedCrashContext crashCtx(
        [&sys] { return sys.dumpPendingState(); });

    // Liveness reporting for a supervising parent. The monitor only
    // observes (no state / RNG impact), so attaching it cannot change
    // the result hash.
    std::unique_ptr<ProgressMonitor> monitor;
    if (heartbeat && heartbeat->active()) {
        heartbeat->beat();  // cover system construction time
        ProgressMonitorParams mp;
        mp.onProgress = [heartbeat] { heartbeat->beat(); };
        monitor = std::make_unique<ProgressMonitor>(sys, mp);
        monitor->start();
    }

    tester.start();

    // Run in fixed slices so a violation or oracle miss ends the run
    // at a deterministic boundary instead of burning the whole tick
    // budget. Slicing is part of the run definition: the end tick
    // feeds the result hash.
    constexpr Tick slice = 20'000'000;
    while (sys.eventQueue().now() < cfg.maxTicks) {
        Tick left = cfg.maxTicks - sys.eventQueue().now();
        sys.run(std::min(slice, left));
        if (checker.violations() > 0 || tester.readFailures() > 0
            || tester.finished())
            break;
    }

    RunResult res;
    res.finished = tester.finished();
    if (res.finished && checker.violations() == 0
        && tester.readFailures() == 0) {
        res.drained = sys.drain(cfg.drainTicks);
        if (res.drained)
            checker.fullSweep(/*strict=*/true);
    }

    res.violations = checker.violations();
    res.readFailures = tester.readFailures();
    res.injections = injector.totalInjections();
    res.opsIssued = tester.opsIssued();
    res.busOps = sys.totalBusOps();
    res.endTick = sys.eventQueue().now();

    if (res.violations > 0)
        res.failure = FailureKind::CheckerViolation;
    else if (res.readFailures > 0)
        res.failure = FailureKind::OracleFailure;
    else if (!res.finished)
        res.failure = FailureKind::Stall;
    else if (!res.drained)
        res.failure = FailureKind::DrainTimeout;

    std::uint64_t h = tester.resultHash();
    h = RandomTester::hashCombine(h, res.busOps);
    h = RandomTester::hashCombine(h, res.injections);
    h = RandomTester::hashCombine(h,
                                  static_cast<std::uint64_t>(res.failure));
    h = RandomTester::hashCombine(h, res.drained ? 1 : 0);
    if (reconfig) {
        // The degradation lifecycle is part of the run's identity:
        // replay bit-identity must cover kills, epochs and losses too.
        h = RandomTester::hashCombine(h, reconfig->kills());
        h = RandomTester::hashCombine(h, reconfig->detections());
        h = RandomTester::hashCombine(h, reconfig->epoch());
        h = RandomTester::hashCombine(h, reconfig->dataLossLines());
        h = RandomTester::hashCombine(h, reconfig->abortedTxns());
        h = RandomTester::hashCombine(h, reconfig->phantomRepairs());
    }
    res.hash = h;

    for (const auto &s : checker.report()) {
        if (res.report.size() >= 8)
            break;
        res.report.push_back(s);
    }
    for (const auto &s : tester.failures()) {
        if (res.report.size() >= 8)
            break;
        res.report.push_back(s);
    }

    res.firedMatches.reserve(cfg.plan.specs.size());
    for (std::size_t i = 0; i < cfg.plan.specs.size(); ++i)
        res.firedMatches.push_back(injector.firedMatches(i));

    return res;
}

// ---------------------------------------------------------------------
// Run results as JSON
// ---------------------------------------------------------------------

Json
toJson(const RunResult &res)
{
    Json r = Json::object();
    r.set("hash", res.hash);
    r.set("failure", std::string(toString(res.failure)));
    r.set("finished", res.finished);
    r.set("drained", res.drained);
    r.set("violations", res.violations);
    r.set("read_failures", res.readFailures);
    r.set("injections", res.injections);
    r.set("ops_issued", res.opsIssued);
    r.set("bus_ops", res.busOps);
    r.set("end_tick", res.endTick);
    if (!res.report.empty()) {
        Json arr = Json::array();
        for (const auto &s : res.report)
            arr.push(s);
        r.set("report", std::move(arr));
    }
    if (!res.firedMatches.empty()) {
        Json outer = Json::array();
        for (const auto &fm : res.firedMatches) {
            Json inner = Json::array();
            for (std::uint64_t m : fm)
                inner.push(Json(m));
            outer.push(std::move(inner));
        }
        r.set("fired_matches", std::move(outer));
    }
    return r;
}

bool
runResultFromJson(const Json &j, RunResult &out)
{
    if (!j.isObject())
        return false;
    out = RunResult{};
    out.hash = j.u64("hash", 0);
    if (!failureKindFromString(j.str("failure", "none"), out.failure))
        return false;
    out.finished = j.flag("finished", false);
    out.drained = j.flag("drained", false);
    out.violations = j.u64("violations", 0);
    out.readFailures = j.u64("read_failures", 0);
    out.injections = j.u64("injections", 0);
    out.opsIssued = j.u64("ops_issued", 0);
    out.busOps = j.u64("bus_ops", 0);
    out.endTick = j.u64("end_tick", 0);
    const Json &rep = j.at("report");
    for (std::size_t i = 0; i < rep.size(); ++i)
        if (rep.at(i).isString())
            out.report.push_back(rep.at(i).asString());
    const Json &fm = j.at("fired_matches");
    for (std::size_t i = 0; i < fm.size(); ++i) {
        std::vector<std::uint64_t> inner;
        const Json &arr = fm.at(i);
        for (std::size_t k = 0; k < arr.size(); ++k)
            inner.push_back(arr.at(k).asU64());
        out.firedMatches.push_back(std::move(inner));
    }
    return true;
}

// ---------------------------------------------------------------------
// Schedule freezing
// ---------------------------------------------------------------------

RunConfig
freezeSchedules(const RunConfig &cfg, const RunResult &observed)
{
    RunConfig out = cfg;
    for (std::size_t i = 0; i < out.plan.specs.size(); ++i) {
        FaultSpec &s = out.plan.specs[i];
        s.atMatches = i < observed.firedMatches.size()
                          ? observed.firedMatches[i]
                          : std::vector<std::uint64_t>{};
        // With every spec on an explicit schedule the injector's RNG is
        // never consulted, so the frozen plan is trivially
        // deterministic and independent of spec order.
        s.prob = 0.0;
    }
    return out;
}

// ---------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------

namespace
{

std::uint64_t
totalScheduled(const RunConfig &cfg)
{
    std::uint64_t total = 0;
    for (const auto &s : cfg.plan.specs)
        total += s.atMatches.size();
    return total;
}

std::size_t
activeNodeCount(const RunConfig &cfg)
{
    return cfg.tester.onlyNodes.empty()
               ? static_cast<std::size_t>(cfg.n) * cfg.n
               : cfg.tester.onlyNodes.size();
}

/**
 * Greedy ddmin over one vector inside the config: repeatedly try to
 * delete chunks (halving the chunk size down to 1), keeping at least
 * @p minKeep elements. @p getVec projects the vector out of a config;
 * @p attempt validates a candidate (and commits it on success).
 */
template <typename GetVec, typename Attempt>
std::uint64_t
ddminVec(RunConfig &cur, GetVec getVec, std::size_t minKeep,
         Attempt attempt)
{
    std::uint64_t removedTotal = 0;
    std::size_t chunk =
        std::max<std::size_t>(1, getVec(cur).size() / 2);
    for (;;) {
        bool removed = false;
        std::size_t pos = getVec(cur).size();
        while (pos > 0) {
            pos = std::min(pos, getVec(cur).size());
            if (pos == 0)
                break;
            std::size_t cnt = std::min(chunk, pos);
            std::size_t lo = pos - cnt;
            if (getVec(cur).size() - cnt >= minKeep) {
                RunConfig cand = cur;
                auto &v = getVec(cand);
                v.erase(v.begin() + static_cast<std::ptrdiff_t>(lo),
                        v.begin() + static_cast<std::ptrdiff_t>(lo + cnt));
                if (attempt(cand)) {
                    removed = true;
                    removedTotal += cnt;
                }
            }
            pos = lo;
        }
        if (chunk == 1) {
            if (!removed)
                break;
        } else {
            chunk = std::max<std::size_t>(1, chunk / 2);
        }
    }
    return removedTotal;
}

} // namespace

ShrinkResult
shrinkRepro(const RunConfig &failing, unsigned maxRuns,
            const std::function<void(const std::string &)> &log)
{
    ShrinkResult sr;
    unsigned runs = 0;

    auto note = [&](const std::string &s) {
        sr.steps.push_back(s);
        if (log)
            log("shrink: " + s);
    };

    RunResult base = runOnce(failing);
    ++runs;
    if (!base.failed()) {
        sr.config = failing;
        sr.result = base;
        sr.runsUsed = runs;
        note("original config did not fail; nothing to shrink");
        return sr;
    }
    const FailureKind kind = base.failure;

    RunConfig cur = failing;
    RunResult curRes = base;

    // Accept a candidate only if it fails the same way twice with the
    // same hash: every reduction step re-proves determinism.
    auto attempt = [&](const RunConfig &cand) -> bool {
        if (runs + 2 > maxRuns)
            return false;
        RunResult a = runOnce(cand);
        ++runs;
        if (a.failure != kind)
            return false;
        RunResult b = runOnce(cand);
        ++runs;
        if (b.failure != a.failure || b.hash != a.hash)
            return false;
        cur = cand;
        curRes = std::move(a);
        return true;
    };

    // Reduction operators reused across passes.

    // Geometrically halve (then decrement) the simulated-time budget.
    // A stall repro otherwise costs the full original budget on every
    // subsequent attempt; shrinking it first makes the rest of the
    // search cheap and the final repro quick to replay.
    auto lowerMaxTicks = [&]() {
        while (cur.maxTicks > 40'000'000) {
            RunConfig cand = cur;
            cand.maxTicks = cur.maxTicks / 2;
            if (!attempt(cand))
                break;
        }
    };

    // Lower each scheduled injection's match index (halving, then
    // decrementing). A fault pinned to the 150th eligible op forces
    // the workload to stay big enough to produce 150 eligible ops;
    // moving the injection earlier in the stream unlocks the op-count
    // and node-set reductions below. This changes *which* op is
    // faulted, so each lowered index must (and does) re-prove the
    // same failure kind.
    auto lowerIndices = [&]() {
        for (std::size_t si = 0; si < cur.plan.specs.size(); ++si) {
            for (std::size_t ei = 0;
                 ei < cur.plan.specs[si].atMatches.size(); ++ei) {
                // Not every earlier index works (e.g. only an
                // ownership-transfer reply stalls when dropped), so a
                // greedy halving gets stuck on the first unsuitable
                // op. Scan upward from 0 instead and take the first
                // index that still fails — the minimal firing
                // position.
                for (std::uint64_t target = 0;
                     target < cur.plan.specs[si].atMatches[ei];
                     ++target) {
                    RunConfig cand = cur;
                    cand.plan.specs[si].atMatches[ei] = target;
                    if (attempt(cand))
                        break;
                    if (runs + 2 > maxRuns)
                        break;
                }
            }
        }
    };

    // Reduce the per-node op count (geometric, then linear).
    auto lowerOps = [&]() {
        while (cur.tester.opsPerNode > 1) {
            RunConfig cand = cur;
            cand.tester.opsPerNode =
                std::max(1u, cur.tester.opsPerNode / 2);
            if (!attempt(cand))
                break;
        }
        while (cur.tester.opsPerNode > 1) {
            RunConfig cand = cur;
            cand.tester.opsPerNode -= 1;
            if (!attempt(cand))
                break;
        }
    };

    // Step 0: shrink the tick budget while the config is still
    // probabilistic. A stall repro left at its original budget makes
    // every following attempt (and the freeze itself — probabilistic
    // faults keep firing for the whole stalled tail, bloating the
    // frozen schedule) proportionally expensive.
    lowerMaxTicks();

    // Step 1: freeze probabilistic specs into explicit schedules.
    bool frozen = false;
    {
        RunConfig cand = freezeSchedules(cur, curRes);
        if (attempt(cand)) {
            frozen = true;
            std::ostringstream oss;
            oss << "froze " << cur.plan.specs.size() << " spec(s) into "
                << totalScheduled(cur) << " scheduled injection(s)";
            note(oss.str());
        } else {
            note("freeze did not reproduce; shrinking original config");
        }
    }
    sr.deterministic = frozen;

    // Step 2: drop whole specs (last to first, so indices stay valid).
    for (std::size_t i = cur.plan.specs.size(); i-- > 0;) {
        if (cur.plan.specs.size() <= 1)
            break;
        if (i >= cur.plan.specs.size())
            continue;
        RunConfig cand = cur;
        cand.plan.specs.erase(cand.plan.specs.begin()
                              + static_cast<std::ptrdiff_t>(i));
        if (attempt(cand))
            note("removed fault spec " + std::to_string(i));
    }

    // Step 3: ddmin each surviving spec's injection schedule.
    if (frozen) {
        for (std::size_t si = 0; si < cur.plan.specs.size(); ++si) {
            std::uint64_t removed = ddminVec(
                cur,
                [si](RunConfig &c) -> std::vector<std::uint64_t> & {
                    return c.plan.specs[si].atMatches;
                },
                /*minKeep=*/0, attempt);
            if (removed > 0)
                note("spec " + std::to_string(si) + ": removed "
                     + std::to_string(removed) + " scheduled injection(s)");
        }
        // Specs whose whole schedule went away are inert; retire them.
        for (std::size_t i = cur.plan.specs.size(); i-- > 0;) {
            if (cur.plan.specs.size() <= 1
                || !cur.plan.specs[i].atMatches.empty())
                continue;
            RunConfig cand = cur;
            cand.plan.specs.erase(cand.plan.specs.begin()
                                  + static_cast<std::ptrdiff_t>(i));
            if (attempt(cand))
                note("removed emptied fault spec " + std::to_string(i));
        }
    }

    // Step 4: move the surviving injections earlier in the stream,
    // then reduce the per-node op count.
    {
        unsigned before = cur.tester.opsPerNode;
        if (frozen)
            lowerIndices();
        lowerOps();
        if (cur.tester.opsPerNode < before)
            note("ops per node " + std::to_string(before) + " -> "
                 + std::to_string(cur.tester.opsPerNode));
    }

    // Step 5: shrink the set of active tester nodes. Materialize the
    // implicit "all nodes" set first (behaviorally identical, but
    // attempt() re-proves that too).
    {
        std::size_t before = activeNodeCount(cur);
        if (cur.tester.onlyNodes.empty()) {
            RunConfig cand = cur;
            for (NodeId id = 0;
                 id < static_cast<NodeId>(cur.n) * cur.n; ++id)
                cand.tester.onlyNodes.push_back(id);
            attempt(cand);
        }
        if (!cur.tester.onlyNodes.empty()) {
            ddminVec(
                cur,
                [](RunConfig &c) -> std::vector<NodeId> & {
                    return c.tester.onlyNodes;
                },
                /*minKeep=*/1, attempt);
        }
        if (activeNodeCount(cur) < before)
            note("active nodes " + std::to_string(before) + " -> "
                 + std::to_string(activeNodeCount(cur)));
    }

    // Step 6: prune schedule entries the final run never reached, and
    // take one more pass at the (now much shorter) schedules.
    if (frozen) {
        RunConfig cand = freezeSchedules(cur, curRes);
        bool differs = false;
        for (std::size_t i = 0; i < cur.plan.specs.size(); ++i)
            differs |= cand.plan.specs[i].atMatches
                       != cur.plan.specs[i].atMatches;
        if (differs && attempt(cand))
            note("pruned schedule entries the run never reached");
        for (std::size_t si = 0; si < cur.plan.specs.size(); ++si) {
            ddminVec(
                cur,
                [si](RunConfig &c) -> std::vector<std::uint64_t> & {
                    return c.plan.specs[si].atMatches;
                },
                /*minKeep=*/0, attempt);
        }
        // Dropping nodes shortened the match stream again: one more
        // index/op-count pass usually pays for itself.
        lowerIndices();
        lowerOps();
        lowerMaxTicks();
    }

    {
        std::ostringstream oss;
        oss << "minimal repro: " << activeNodeCount(cur) << " node(s) x "
            << cur.tester.opsPerNode << " op(s), "
            << cur.plan.specs.size() << " spec(s), "
            << totalScheduled(cur) << " scheduled injection(s), "
            << runs << " run(s) used";
        note(oss.str());
    }

    sr.config = cur;
    sr.result = curRes;
    sr.runsUsed = runs;
    return sr;
}

// ---------------------------------------------------------------------
// Artifacts
// ---------------------------------------------------------------------

namespace
{

constexpr const char *kArtifactFormat = "mcube-fuzz-repro-v1";

} // namespace

Json
artifactJson(const RunConfig &cfg, const RunResult &res,
             const std::string &note)
{
    Json j = Json::object();
    j.set("format", kArtifactFormat);
    j.set("git_rev", run::gitRevision());
    if (!note.empty())
        j.set("note", note);
    j.set("config", toJson(cfg));
    j.set("result", toJson(res));
    return j;
}

std::string
artifactParseError(const Json &j)
{
    if (!j.isObject())
        return "not a JSON object (corrupt or truncated artifact?)";
    if (!j.has("format"))
        return "missing \"format\" field — not a repro artifact";
    const std::string fmt = j.str("format", "");
    if (fmt != kArtifactFormat)
        return "unsupported artifact format \"" + fmt + "\" (this "
               "binary reads \"" + std::string(kArtifactFormat) + "\")";
    if (!j.has("config"))
        return "artifact has no \"config\" field";
    RunConfig cfg;
    if (!runConfigFromJson(j.at("config"), cfg)) {
        // Most common cause in practice: a hand-edited or version-
        // skewed fault plan. Name the exact spec and kind when so.
        if (j.at("config").has("fault_plan")) {
            std::string why =
                faultPlanParseError(j.at("config").at("fault_plan"));
            if (!why.empty())
                return "artifact \"config.fault_plan\": " + why;
        }
        return "artifact \"config\" does not parse as a run config";
    }
    if (j.has("result") && j.at("result").isObject()) {
        FailureKind k;
        if (!failureKindFromString(
                j.at("result").str("failure", "none"), k))
            return "artifact \"result.failure\" names an unknown "
                   "failure kind";
    }
    return "";
}

bool
artifactFromJson(const Json &j, RunConfig &cfg,
                 std::uint64_t &expectedHash,
                 FailureKind &expectedFailure)
{
    if (!artifactParseError(j).empty())
        return false;
    if (!runConfigFromJson(j.at("config"), cfg))
        return false;
    const Json &r = j.at("result");
    expectedHash = r.u64("hash", 0);
    expectedFailure = FailureKind::None;
    if (r.isObject()
        && !failureKindFromString(r.str("failure", "none"),
                                  expectedFailure))
        return false;
    return true;
}

Json
crashArtifactJson(const RunConfig &cfg,
                  const run::WorkerOutcome &outcome,
                  const std::string &note)
{
    Json j = Json::object();
    j.set("format", kArtifactFormat);
    j.set("git_rev", run::gitRevision());
    if (!note.empty())
        j.set("note", note);
    j.set("config", toJson(cfg));

    Json t = Json::object();
    t.set("triage", std::string(run::toString(outcome.triage)));
    t.set("exit_code", static_cast<std::int64_t>(outcome.exitCode));
    t.set("signal", static_cast<std::int64_t>(outcome.termSignal));
    t.set("wall_seconds", outcome.wallSeconds);
    t.set("heartbeats", outcome.heartbeats);
    if (!outcome.error.empty())
        t.set("error", outcome.error);
    j.set("worker", std::move(t));
    return j;
}

// ---------------------------------------------------------------------
// Campaign
// ---------------------------------------------------------------------

RunConfig
randomConfig(std::uint64_t campaignSeed, unsigned runIndex,
             bool plantUnsafeDropReply)
{
    std::uint64_t s = RandomTester::hashCombine(
        RandomTester::hashCombine(14695981039346656037ULL, campaignSeed),
        runIndex);
    Random rng(s ? s : 1);

    RunConfig cfg;
    static constexpr unsigned grids[] = {2, 2, 3, 3, 4};
    cfg.n = grids[rng.below(5)];
    cfg.sysSeed = rng.below(1'000'000'000) + 1;
    cfg.requestTimeoutTicks = 300'000 + rng.below(500'000);

    cfg.tester.seed = rng.below(1'000'000'000) + 1;
    cfg.tester.opsPerNode = 20 + rng.below(80);
    cfg.tester.numDataLines = 8 + rng.below(24);
    cfg.tester.numLockLines = 2 + rng.below(4);
    cfg.tester.pWrite = 0.2 + 0.3 * rng.uniform();
    cfg.tester.pAllocate = 0.1 * rng.uniform();
    cfg.tester.pTset = rng.chance(0.5) ? 0.1 + 0.15 * rng.uniform() : 0.0;
    cfg.tester.pSyncOfLocks =
        (cfg.tester.pTset > 0.0 && rng.chance(0.5)) ? 0.5 : 0.0;
    cfg.tester.maxThink = 100 + rng.below(500);

    // Fault probabilities stay in the range the resilience tests prove
    // recoverable (the campaign hunts protocol bugs, not configs that
    // merely exceed the tick budget); outages are rare but long.
    cfg.plan.seed = rng.below(1'000'000'000) + 1;
    unsigned nspecs = 1 + rng.below(3);
    for (unsigned i = 0; i < nspecs; ++i) {
        FaultSpec sp;
        sp.kind = static_cast<FaultKind>(rng.below(5));
        switch (sp.kind) {
          case FaultKind::Delay:
            sp.prob = 0.08 * rng.uniform();
            sp.delayTicks = 500 + rng.below(4000);
            break;
          case FaultKind::Duplicate:
            sp.prob = 0.05 * rng.uniform();
            break;
          case FaultKind::Outage:
            sp.prob = 0.002 * rng.uniform();
            sp.outageTicks = 10'000 + rng.below(40'000);
            break;
          default:
            sp.prob = 0.08 * rng.uniform();
            break;
        }
        if (rng.chance(0.3)) {
            sp.busDim = rng.chance(0.5) ? 0 : 1;
            if (rng.chance(0.5))
                sp.busIndex = static_cast<int>(rng.below(cfg.n));
        }
        cfg.plan.specs.push_back(sp);
    }

    // Fail-stop lottery. Drawn strictly after every draw above so the
    // transient half of a config is unchanged by the feature's
    // existence; skipped for planted-bug campaigns, whose shrink tests
    // assume a purely transient plan.
    if (!plantUnsafeDropReply && rng.chance(0.08)) {
        FaultSpec fs;
        unsigned victim = rng.below(3);
        fs.graceful = rng.chance(0.5);
        fs.atTick = 500'000 + rng.below(3'500'000);
        switch (victim) {
          case 0:
            fs.kind = FaultKind::FailStopBus;
            fs.busDim = rng.chance(0.5) ? 0 : 1;
            fs.busIndex = static_cast<int>(rng.below(cfg.n));
            break;
          case 1:
            fs.kind = FaultKind::FailStopNode;
            fs.targetNode = static_cast<int>(rng.below(cfg.n * cfg.n));
            break;
          default:
            fs.kind = FaultKind::FailStopMemory;
            fs.busIndex = static_cast<int>(rng.below(cfg.n));
            break;
        }
        cfg.plan.specs.push_back(fs);
        // SYNC queue chains threaded through dying nodes are covered
        // by the dedicated reconfiguration tests; the fuzzer's job
        // here is the detect/quarantine/cutover machinery itself.
        cfg.tester.pSyncOfLocks = 0.0;
    }

    if (plantUnsafeDropReply) {
        // The planted bug: an *unsafe* DropReply may destroy the only
        // copy of a line (see FaultSpec::unsafe).
        FaultSpec bug;
        bug.kind = FaultKind::DropReply;
        bug.unsafe = true;
        bug.prob = 0.02;
        cfg.plan.specs.push_back(bug);
    }
    return cfg;
}

namespace
{

bool
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << text;
    return static_cast<bool>(out);
}

/** Canonical identity of a campaign: everything that determines which
 *  cases exist and what they do. Journals from a different campaign
 *  shape (or binary revision) must refuse to resume. */
std::string
campaignIdentity(const CampaignOptions &opt)
{
    std::ostringstream oss;
    oss << "fuzz_campaign|seed=" << opt.seed << "|runs=" << opt.runs
        << "|plant=" << (opt.plantUnsafeDropReply ? 1 : 0)
        << "|rev=" << run::gitRevision();
    return oss.str();
}

} // namespace

CampaignSummary
runCampaign(const CampaignOptions &opt)
{
    CampaignSummary sum;
    auto t0 = std::chrono::steady_clock::now();
    auto logLine = [&](const std::string &s) {
        if (opt.log)
            opt.log(s);
    };
    auto wantStop = [&] {
        return opt.stopRequested && opt.stopRequested();
    };

    const bool isolate = opt.isolate && run::Supervisor::supported();
    run::Supervisor sup(opt.limits);

    run::WorkJournal journal;
    if (!opt.journalPath.empty()) {
        if (!opt.resume) {
            std::error_code ec;
            std::filesystem::remove(opt.journalPath, ec);
        }
        Json hdr = Json::object();
        hdr.set("tool", "fuzz_campaign");
        hdr.set("seed", opt.seed);
        hdr.set("runs", opt.runs);
        hdr.set("plant_unsafe_drop_reply",
                Json(opt.plantUnsafeDropReply));
        std::string jerr;
        if (!journal.open(opt.journalPath,
                          run::WorkJournal::keyOf(campaignIdentity(opt)),
                          hdr, &jerr)) {
            sum.error = "journal: " + jerr;
            return sum;
        }
        if (journal.loaded() > 0)
            logLine("journal: " + std::to_string(journal.loaded())
                    + " case(s) already recorded in "
                    + opt.journalPath);
    }

    // (index, hash) of every case with a result — journaled or fresh —
    // folded into campaignHash in index order at the end.
    std::map<unsigned, std::uint64_t> hashByIndex;

    bool dirReady = false;
    auto ensureDir = [&] {
        if (dirReady)
            return;
        std::error_code ec;
        std::filesystem::create_directories(opt.outDir, ec);
        dirReady = true;
    };

    bool complete = true;
    for (unsigned i = 0; i < opt.runs; ++i) {
        const std::string item = "run_" + std::to_string(i);

        // Resume path: merge the journaled outcome, skip execution.
        if (journal.isOpen() && journal.has(item)) {
            const Json *rec = journal.find(item);
            run::Triage tri = run::Triage::Clean;
            run::triageFromString(rec->str("triage", "clean"), tri);
            RunResult res;
            if (!run::isAbnormal(tri)
                && runResultFromJson(rec->at("result"), res)) {
                hashByIndex[i] = res.hash;
                if (res.failed())
                    ++sum.failures;
            } else {
                ++sum.crashes;
            }
            ++sum.skipped;
            continue;
        }

        if (wantStop()) {
            sum.interrupted = true;
            complete = false;
            logLine("stop requested: draining after " +
                    std::to_string(sum.runsDone) + " run(s)");
            break;
        }

        if (opt.timeBudgetSeconds > 0) {
            double elapsed =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            if (elapsed >= opt.timeBudgetSeconds) {
                complete = false;
                std::ostringstream oss;
                oss << "time budget (" << opt.timeBudgetSeconds
                    << "s) reached after " << sum.runsDone << " run(s)";
                logLine(oss.str());
                break;
            }
        }

        RunConfig cfg =
            randomConfig(opt.seed, i, opt.plantUnsafeDropReply);

        RunResult res;
        bool haveResult = false;
        Json entry = Json::object();

        if (isolate) {
            run::WorkerOutcome out = sup.runOne(
                [&cfg, &opt, i](const run::Heartbeat &hb,
                                std::string &resultOut) {
                    if (opt.preRun)
                        opt.preRun(i);
                    RunResult r = runOnce(cfg, &hb);
                    resultOut = toJson(r).dump(-1);
                    return r.failed() ? 1 : 0;
                });
            run::Triage tri = out.triage;
            if (!run::isAbnormal(tri)) {
                std::string perr;
                Json rj = Json::parse(out.result, &perr);
                if (runResultFromJson(rj, res)) {
                    haveResult = true;
                } else {
                    // Clean exit but garbage on the result pipe: treat
                    // as a worker fault, not a campaign fault.
                    tri = run::Triage::Fatal;
                    out.error = "worker result did not parse: " + perr;
                }
            }
            entry.set("triage", std::string(run::toString(tri)));
            entry.set("exit_code",
                      static_cast<std::int64_t>(out.exitCode));
            entry.set("signal",
                      static_cast<std::int64_t>(out.termSignal));
            entry.set("wall_s", out.wallSeconds);
            entry.set("heartbeats", out.heartbeats);
            if (haveResult)
                entry.set("result", toJson(res));

            if (!haveResult) {
                ++sum.crashes;
                ensureDir();
                std::string path = opt.outDir + "/repro_"
                                 + std::to_string(opt.seed) + "_"
                                 + std::to_string(i) + ".crash.json";
                out.triage = tri;
                if (writeFile(path,
                              crashArtifactJson(
                                  cfg, out, "worker died abnormally")
                                  .dump()))
                    sum.artifacts.push_back(path);
                std::ostringstream oss;
                oss << "run " << (i + 1) << "/" << opt.runs
                    << ": WORKER " << run::toString(tri);
                if (out.termSignal)
                    oss << " (signal " << out.termSignal << ")";
                oss << " -> wrote " << path;
                logLine(oss.str());
            }
        } else {
            auto rt0 = std::chrono::steady_clock::now();
            if (opt.preRun)
                opt.preRun(i);
            res = runOnce(cfg);
            haveResult = true;
            double wall = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - rt0)
                              .count();
            entry.set("triage",
                      std::string(run::toString(
                          res.failed() ? run::Triage::ItemFailed
                                       : run::Triage::Clean)));
            entry.set("exit_code", res.failed() ? 1 : 0);
            entry.set("signal", 0);
            entry.set("wall_s", wall);
            entry.set("result", toJson(res));
        }
        ++sum.runsDone;

        if (haveResult) {
            hashByIndex[i] = res.hash;
            std::ostringstream oss;
            oss << "run " << (i + 1) << "/" << opt.runs << ": n=" << cfg.n
                << " ops=" << cfg.tester.opsPerNode
                << " specs=" << cfg.plan.specs.size() << " -> ";
            if (res.failed())
                oss << "FAIL (" << toString(res.failure) << ")";
            else
                oss << "ok";
            oss << " hash=" << std::hex << res.hash << std::dec;
            logLine(oss.str());
        }

        // Journal before shrinking: the case's verdict is durable even
        // if the (long) shrink is interrupted.
        if (journal.isOpen() && !journal.record(item, entry))
            logLine("journal: WARNING: failed to record " + item);

        if (!haveResult || !res.failed())
            continue;
        ++sum.failures;

        ensureDir();
        std::string base = opt.outDir + "/repro_"
                         + std::to_string(opt.seed) + "_"
                         + std::to_string(i);
        if (writeFile(base + ".json",
                      artifactJson(cfg, res, "as found").dump()))
            sum.artifacts.push_back(base + ".json");
        logLine("wrote " + base + ".json");

        if (opt.shrink && !wantStop()) {
            ShrinkResult s =
                shrinkRepro(cfg, opt.maxShrinkRuns, opt.log);
            std::string how = s.deterministic
                                  ? "shrunken (determinism re-verified "
                                    "at every step)"
                                  : "shrunken";
            if (writeFile(base + ".min.json",
                          artifactJson(s.config, s.result, how).dump()))
                sum.artifacts.push_back(base + ".min.json");
            logLine("wrote " + base + ".min.json");
        }
    }

    std::uint64_t h = 14695981039346656037ULL;
    for (const auto &[idx, hash] : hashByIndex) {
        h = RandomTester::hashCombine(h, idx);
        h = RandomTester::hashCombine(h, hash);
    }
    sum.campaignHash = h;

    // Footer only when every case is accounted for; an interrupted
    // journal (no footer) is exactly what --resume continues from.
    if (journal.isOpen() && complete)
        journal.finish();
    return sum;
}

} // namespace mcube::fuzz
