/**
 * @file
 * One end-to-end benchmark repetition: build a MulticubeSystem, run one
 * named workload and print one JSON object describing the run.
 *
 *   bench_e2e --workload NAME --seed S [--scale F] [--workers K]
 *             [--trace]
 *
 * Every workload is closed-loop per simulated processor (think, one
 * transaction, the next only after completion). After construction the
 * run warms up for a fixed simulated interval, then measures a fixed
 * simulated interval split into kChunks equal chunks, each timed on the
 * host. Only calls into the library's public API are timed:
 * construction, MulticubeSystem::run() per chunk, drain() and teardown.
 * --scale shrinks both intervals (the smoke path runs at 1/50);
 * --workers sets the parallel engine's worker count for the workload
 * that uses the engine (default 1).
 *
 * The simulator is deterministic, so every simulated statistic repeats
 * exactly for a seed; the JSON carries a digest of the stat tree so the
 * runner (run.py) can check that repetitions, the traced pass and the
 * 1-worker twin of the parallel workload all simulated the same run.
 * --trace turns the library's SimProfiler on for the measured interval
 * only; it never changes simulated state.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/checker.hh"
#include "core/system.hh"
#include "mva/mva_model.hh"
#include "proc/address_workload.hh"
#include "proc/mix_workload.hh"
#include "proc/random_tester.hh"
#include "sim/hash.hh"
#include "sim/json.hh"
#include "sim/profiler.hh"
#include "sim/sweep_runner.hh"

using namespace mcube;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Timed chunks the measured interval is split into: p90 over 200
 *  samples leaves 20 samples beyond it. */
constexpr unsigned kChunks = 200;

enum class Kind { Mix, Addr, Tester };

/** One named workload. The intervals are simulated milliseconds. */
struct WorkloadSpec
{
    const char *name;
    Kind kind;
    unsigned n;
    bool parallel;     //!< parallel engine (simThreads = --workers)
    double warmMs;     //!< warm-up, untimed by the chunk metrics
    double measureMs;  //!< measured interval
};

/**
 * Why these four: see README.md. The warm-ups end where each
 * workload's steady state begins (addr_n16's snooping-cache hit rate
 * levels off at 0.55 after ~35 ms); the measured intervals are sized so
 * one repetition measures 2-3.5 host seconds on a 4-vCPU AMD EPYC VM.
 */
constexpr WorkloadSpec kWorkloads[] = {
    {"mix_n32", Kind::Mix, 32, false, 1.0, 8.0},
    {"mix_n64_par", Kind::Mix, 64, true, 0.5, 2.0},
    {"addr_n16", Kind::Addr, 16, false, 40.0, 30.0},
    {"tester_n8_checked", Kind::Tester, 8, false, 10.0, 120.0},
};

/**
 * RandomTester has no stop(), so its per-node quota is sized to outlast
 * warm-up plus the measured interval by 15%: every node is still
 * issuing when measurement ends, and drain() runs out the tail. The
 * rate is the measured mean rate at which this configuration's nodes
 * use up their quota, in ops per node per simulated ms.
 */
constexpr double kTesterOpsPerNodePerMs = 49.0;
constexpr double kTesterQuotaMargin = 1.15;

/** Machine-wide counter totals at one instant; the difference of two
 *  snapshots is the measured interval's share. */
struct Counts
{
    std::uint64_t events = 0;
    std::uint64_t rowOps = 0, colOps = 0;
    std::uint64_t rowBusy = 0, colBusy = 0;
    std::uint64_t filterHits = 0, filterRejects = 0;
    std::uint64_t hits = 0, misses = 0;
    std::uint64_t reissues = 0, invalidations = 0, syncJoins = 0;
    std::uint64_t mltOverflows = 0;
    std::uint64_t memReads = 0, memBounces = 0;
    std::uint64_t l1Hits = 0, l1Refs = 0;
    std::uint64_t checkerOps = 0;
};

/** The system under test plus whichever drivers the workload uses.
 *  Members are declared in construction order; teardown() destroys
 *  them in reverse. */
struct Run
{
    std::unique_ptr<MulticubeSystem> sys;
    std::unique_ptr<MixWorkload> mix;
    std::unique_ptr<AddressWorkload> addr;
    std::unique_ptr<CoherenceChecker> checker;
    std::unique_ptr<RandomTester> tester;

    std::uint64_t
    opsDone() const
    {
        if (mix)
            return mix->totalCompleted();
        if (addr)
            return addr->references();
        return tester->opsIssued();
    }

    Counts
    snapshot()
    {
        Counts c;
        MulticubeSystem &s = *sys;
        c.events = s.eventQueue().eventsExecuted();
        for (unsigned i = 0; i < s.n(); ++i) {
            c.rowOps += s.rowBus(i).opsDelivered();
            c.colOps += s.colBus(i).opsDelivered();
            c.rowBusy += s.rowBus(i).busyTicks();
            c.colBusy += s.colBus(i).busyTicks();
            c.memReads += s.memory(i).readsServed();
            c.memBounces += s.memory(i).bounces();
        }
        for (NodeId id = 0; id < s.numNodes(); ++id) {
            const SnoopController &nd = s.node(id);
            c.filterHits += nd.filterHits();
            c.filterRejects += nd.filterRejects();
            c.hits += nd.hits();
            c.misses += nd.misses();
            c.reissues += nd.reissues();
            c.invalidations += nd.invalidationsReceived();
            c.syncJoins += nd.syncJoins();
            c.mltOverflows += nd.mltOverflows();
            if (addr) {
                Processor &p = addr->processor(id);
                c.l1Hits += p.l1Hits();
                c.l1Refs += p.loads() + p.stores();
            }
        }
        if (checker)
            c.checkerOps = checker->opsObserved();
        return c;
    }

    void
    teardown()
    {
        tester.reset();
        checker.reset();
        addr.reset();
        mix.reset();
        sys.reset();
    }
};

/** ParallelEngine telemetry over the measured interval (counters of
 *  two snapshots subtracted). */
ParallelEngine::Telemetry
telemetryDelta(const ParallelEngine::Telemetry &a,
               const ParallelEngine::Telemetry &b)
{
    ParallelEngine::Telemetry d = b;
    d.windows -= a.windows;
    d.parallelPhases -= a.parallelPhases;
    d.events -= a.events;
    d.serialEvents -= a.serialEvents;
    d.rowEvents -= a.rowEvents;
    d.colEvents -= a.colEvents;
    d.crossLaneOps -= a.crossLaneOps;
    d.wallNs -= a.wallNs;
    d.serialNs -= a.serialNs;
    d.rowPhaseNs -= a.rowPhaseNs;
    d.colPhaseNs -= a.colPhaseNs;
    d.barrierWaitNs -= a.barrierWaitNs;
    for (std::size_t i = 0; i < d.laneEvents.size()
                            && i < a.laneEvents.size(); ++i)
        d.laneEvents[i] -= a.laneEvents[i];
    return d;
}

std::uint64_t
fnv(std::uint64_t h, std::uint64_t v)
{
    return RandomTester::hashCombine(h, v);
}

/**
 * Digest of a finished run: FNV-1a over every integer-valued entry of
 * the flattened stat tree (name and value), the events executed and
 * the final tick, plus the tester's result hash when there is one.
 */
std::uint64_t
runDigest(Run &r, const FlatStats &flat)
{
    std::uint64_t h = 14695981039346656037ULL;
    for (const auto &[name, value] : flat) {
        if (!std::isfinite(value) || value != std::floor(value)
            || std::fabs(value) >= 9.2e18)
            continue;
        for (unsigned char ch : name)
            h = (h ^ ch) * 1099511628211ULL;
        h = fnv(h, static_cast<std::uint64_t>(
                       static_cast<std::int64_t>(value)));
    }
    h = fnv(h, r.sys->eventQueue().eventsExecuted());
    h = fnv(h, r.sys->eventQueue().now());
    h = fnv(h, r.opsDone());
    if (r.tester)
        h = fnv(h, r.tester->resultHash());
    return h;
}

/** Ops-weighted mean over every bus of a flattened per-bus stat
 *  ("system.rowK.<suffix>" / "system.colK.<suffix>"). */
double
busWeightedMean(const FlatStats &flat, const std::string &suffix)
{
    double sum = 0.0, weight = 0.0;
    for (std::size_t i = 0; i < flat.size(); ++i) {
        const std::string &name = flat[i].first;
        if (name.rfind("system.row", 0) != 0
            && name.rfind("system.col", 0) != 0)
            continue;
        const std::size_t dot = name.find('.', 7);
        if (dot == std::string::npos
            || name.compare(dot + 1, std::string::npos, "ops") != 0)
            continue;
        const std::string want = name.substr(0, dot + 1) + suffix;
        for (std::size_t j = i + 1; j < flat.size(); ++j) {
            if (flat[j].first == want) {
                sum += flat[i].second * flat[j].second;
                weight += flat[i].second;
                break;
            }
        }
    }
    return weight > 0.0 ? sum / weight : 0.0;
}

/** VmHWM in KiB, 0 if /proc is unavailable. */
std::uint64_t
peakRssKb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtoull(line.c_str() + 6, nullptr, 10);
    return 0;
}

/** Host speed fingerprint: ns per step of a fixed dependent mix64
 *  chain, so absolute numbers from different hosts are never
 *  compared blind. */
double
calibrationNs()
{
    constexpr std::uint64_t steps = 1u << 23;
    const auto t0 = Clock::now();
    std::uint64_t x = 1;
    for (std::uint64_t i = 0; i < steps; ++i)
        x = mix64(x + i);
    const double s = secondsSince(t0);
    if (x == 42)  // keep the chain live
        std::fprintf(stderr, "calibration: %llu\n",
                     static_cast<unsigned long long>(x));
    return s * 1e9 / static_cast<double>(steps);
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "bench_e2e: %s\nusage: bench_e2e --workload NAME "
                 "--seed S [--scale F] [--workers K] [--trace]\n",
                 why);
    std::exit(2);
}

Json
countsJson(const Counts &a, const Counts &b)
{
    Json j = Json::object();
    j.set("events", b.events - a.events);
    j.set("row_ops", b.rowOps - a.rowOps);
    j.set("col_ops", b.colOps - a.colOps);
    j.set("row_busy_ticks", b.rowBusy - a.rowBusy);
    j.set("col_busy_ticks", b.colBusy - a.colBusy);
    j.set("filter_hits", b.filterHits - a.filterHits);
    j.set("filter_rejects", b.filterRejects - a.filterRejects);
    j.set("hits", b.hits - a.hits);
    j.set("misses", b.misses - a.misses);
    j.set("reissues", b.reissues - a.reissues);
    j.set("invalidations", b.invalidations - a.invalidations);
    j.set("sync_joins", b.syncJoins - a.syncJoins);
    j.set("mlt_overflows", b.mltOverflows - a.mltOverflows);
    j.set("mem_reads", b.memReads - a.memReads);
    j.set("mem_bounces", b.memBounces - a.memBounces);
    j.set("l1_hits", b.l1Hits - a.l1Hits);
    j.set("l1_refs", b.l1Refs - a.l1Refs);
    j.set("checker_ops", b.checkerOps - a.checkerOps);
    return j;
}

Json
telemetryJson(const ParallelEngine::Telemetry &t)
{
    Json j = Json::object();
    j.set("workers", t.workersEffective);
    j.set("windows", t.windows);
    j.set("parallel_phases", t.parallelPhases);
    j.set("events", t.events);
    j.set("par_events", t.rowEvents + t.colEvents);
    j.set("cross_lane_ops", t.crossLaneOps);
    j.set("wall_ns", t.wallNs);
    j.set("phase_ns", t.rowPhaseNs + t.colPhaseNs);
    j.set("barrier_wait_ns", t.barrierWaitNs);
    j.set("serial_frac_events", t.serialFracEvents());
    j.set("serial_frac_ns", 1.0 - t.parallelFracNs());
    j.set("imbalance", t.imbalance());
    j.set("projected_speedup", t.projectedSpeedup(t.workersEffective));
    return j;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto t_main = Clock::now();

    std::string workload;
    std::uint64_t seed = 1;
    double scale = 1.0;
    unsigned workers = 1;
    bool trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--workload" && has_value)
            workload = argv[++i];
        else if (a == "--seed" && has_value)
            seed = std::strtoull(argv[++i], nullptr, 10);
        else if (a == "--scale" && has_value)
            scale = std::strtod(argv[++i], nullptr);
        else if (a == "--workers" && has_value)
            workers = static_cast<unsigned>(std::atoi(argv[++i]));
        else if (a == "--trace")
            trace = true;
        else
            usage(("unknown argument " + a).c_str());
    }
    const WorkloadSpec *spec = nullptr;
    std::uint64_t index = 0;
    for (const WorkloadSpec &w : kWorkloads) {
        if (workload == w.name)
            spec = &w;
        else if (!spec)
            ++index;
    }
    if (!spec)
        usage(("unknown workload '" + workload + "'").c_str());
    if (!(scale > 0.0 && scale <= 1.0) || workers == 0)
        usage("--scale must be in (0, 1] and --workers >= 1");

    // Seeds: pointSeed(--seed, workload index), split into independent
    // system and workload streams.
    const std::uint64_t ws = sweep::pointSeed(seed, index);
    const Tick warm = static_cast<Tick>(spec->warmMs * scale * 1e6);
    const Tick chunk = static_cast<Tick>(
        std::max(1.0, spec->measureMs * scale * 1e6 / kChunks));

    SystemParams sp;
    sp.n = spec->n;
    sp.seed = sweep::pointSeed(ws, 0);
    sp.simThreads = spec->parallel ? workers : 0;

    Run r;
    const auto t_construct = Clock::now();
    r.sys = std::make_unique<MulticubeSystem>(sp);
    switch (spec->kind) {
      case Kind::Mix: {
        MixParams mp;  // Figure 2 mix at 25 requests/ms
        mp.seed = sweep::pointSeed(ws, 1);
        r.mix = std::make_unique<MixWorkload>(*r.sys, mp);
        r.mix->regStats(r.sys->statistics());
        break;
      }
      case Kind::Addr: {
        AddressWorkloadParams ap;
        ap.seed = sweep::pointSeed(ws, 1);
        r.addr = std::make_unique<AddressWorkload>(*r.sys, ap);
        for (NodeId id = 0; id < r.sys->numNodes(); ++id)
            r.addr->processor(id).regStats(r.sys->statistics());
        break;
      }
      case Kind::Tester: {
        RandomTesterParams tp;
        tp.numDataLines = 24;
        tp.numLockLines = 4;
        tp.pWrite = 0.35;
        tp.pTset = 0.15;
        tp.pSyncOfLocks = 0.3;
        tp.opsPerNode = static_cast<unsigned>(std::ceil(
            kTesterOpsPerNodePerMs * (spec->warmMs + spec->measureMs)
            * scale * kTesterQuotaMargin));
        tp.seed = sweep::pointSeed(ws, 1);
        r.checker = std::make_unique<CoherenceChecker>(*r.sys, 64);
        r.tester = std::make_unique<RandomTester>(*r.sys, *r.checker, tp);
        break;
      }
    }
    const double construct_s = secondsSince(t_construct);

    const auto t_warm = Clock::now();
    if (r.mix)
        r.mix->start();
    else if (r.addr)
        r.addr->start();
    else
        r.tester->start();
    r.sys->run(warm);
    const double warmup_s = secondsSince(t_warm);
    const double setup_s = secondsSince(t_main);

    ParallelEngine *eng = r.sys->parallelEngine();
    ParallelEngine::Telemetry tel0;
    if (eng)
        tel0 = eng->telemetry();
    const Counts c0 = r.snapshot();

    SimProfiler prof;
    if (trace)
        prof.activate();
    std::vector<double> chunk_ms(kChunks);
    for (unsigned i = 0; i < kChunks; ++i) {
        const auto t = Clock::now();
        r.sys->run(chunk);
        chunk_ms[i] = secondsSince(t) * 1e3;
    }
    if (trace)
        prof.deactivate();

    const Counts c1 = r.snapshot();
    ParallelEngine::Telemetry tel;
    if (eng)
        tel = telemetryDelta(tel0, eng->telemetry());
    double measure_s = 0.0;
    for (double ms : chunk_ms)
        measure_s += ms / 1e3;

    // Efficiency over the whole run, read before stop() so the mix's
    // elapsed time ends with the measured interval.
    double efficiency = 0.0;
    if (r.mix) {
        efficiency = r.mix->efficiency();
    } else if (r.addr) {
        const double elapsed = static_cast<double>(r.sys->eventQueue().now());
        efficiency = static_cast<double>(r.addr->references())
                   * static_cast<double>(AddressWorkloadParams{}.thinkTicks)
                   / (elapsed * r.sys->numNodes());
    }

    const auto t_drain = Clock::now();
    if (r.mix)
        r.mix->stop();
    else if (r.addr)
        r.addr->stop();
    const bool drained = r.sys->drain(1'000'000'000);
    const double drain_s = secondsSince(t_drain);

    // Correctness: everything below must be zero for a healthy run.
    std::uint64_t read_failures = 0, violations = 0, aborted = 0;
    if (r.tester) {
        r.checker->fullSweep(true);
        read_failures = r.tester->readFailures();
        violations = r.checker->violations();
        aborted = r.tester->opsAborted();
    }
    const std::uint64_t outstanding =
        r.sys->outstandingTransactions() + (drained ? 0 : 1)
        + (r.tester && !r.tester->finished() ? 1 : 0);
    const std::uint64_t past_tick = r.sys->eventQueue().schedPastTick();

    Histogram miss_lat;
    for (NodeId id = 0; id < r.sys->numNodes(); ++id)
        miss_lat.merge(r.sys->node(id).missLatencyHist());
    FlatStats flat;
    r.sys->statistics().flatten(flat);
    const std::uint64_t digest = runDigest(r, flat);
    const std::uint64_t final_tick = r.sys->eventQueue().now();
    const std::uint64_t ops_total = r.opsDone();

    const auto t_teardown = Clock::now();
    r.teardown();
    const double teardown_s = secondsSince(t_teardown);

    char digest_hex[17];
    std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                  static_cast<unsigned long long>(digest));

    Json out = Json::object();
    out.set("workload", spec->name);
    out.set("n", spec->n);
    out.set("seed", seed);
    out.set("scale", scale);
    out.set("workers", eng ? tel.workersEffective : 0u);
    out.set("traced", trace);
    out.set("digest", std::string(digest_hex));
    out.set("construct_s", construct_s);
    out.set("warmup_s", warmup_s);
    out.set("setup_s", setup_s);
    out.set("measure_s", measure_s);
    out.set("drain_s", drain_s);
    out.set("teardown_s", teardown_s);
    out.set("measure_ticks", static_cast<std::uint64_t>(chunk) * kChunks);
    Json chunks = Json::array();
    for (double ms : chunk_ms)
        chunks.push(ms);
    out.set("chunk_ms", std::move(chunks));
    out.set("counts", countsJson(c0, c1));
    out.set("final_tick", final_tick);
    out.set("ops_total", ops_total);
    out.set("efficiency", efficiency);
    if (spec->kind == Kind::Mix) {
        // The MVA model is the repository's only reference for the
        // simulated efficiency (same n, same Figure 2 mix and rate).
        MvaParams mva;
        mva.n = spec->n;
        mva.requestsPerMs = MixParams{}.requestsPerMs;
        out.set("mva_efficiency", MvaModel(mva).solve().efficiency);
    }
    out.set("miss_latency_ns_mean", miss_lat.mean());
    out.set("miss_latency_ns_p99", miss_lat.p99());
    // Percentiles, not mean and p99: under the parallel engine about 1%
    // of column-bus samples record a grant tick earlier than the
    // enqueue tick and wrap to ~1.8e19, which swamps a mean or p99 but
    // leaves the median and p95 of each bus intact.
    out.set("queue_delay_ns_p50",
            busWeightedMean(flat, "queue_delay_hist.p50"));
    out.set("queue_delay_ns_p95",
            busWeightedMean(flat, "queue_delay_hist.p95"));
    Json fails = Json::object();
    fails.set("read_failures", read_failures);
    fails.set("violations", violations);
    fails.set("aborted", aborted);
    fails.set("outstanding", outstanding);
    fails.set("sched_past_tick", past_tick);
    out.set("failures", std::move(fails));
    if (eng)
        out.set("par", telemetryJson(tel));
    if (trace) {
        const Json pj = prof.toJson();
        Json kinds = Json::object();
        for (const auto &[kind, v] : pj.at("kinds").members()) {
            Json k = Json::object();
            k.set("self_ns", v.u64("self_ns", 0));
            k.set("count", v.u64("count", 0));
            kinds.set(kind, std::move(k));
        }
        out.set("prof_wall_ns", pj.u64("wall_ns", 0));
        out.set("prof_kinds", std::move(kinds));
    }
    out.set("calibration_ns", calibrationNs());
    out.set("peak_rss_kb", peakRssKb());
    std::cout << out.dump(-1) << std::endl;
    return 0;
}
