/**
 * @file
 * A small command-line driver for parameter sweeps, emitting CSV —
 * the tool a study of the machine would actually script against.
 *
 *   $ ./sweep_cli --mode=mva --n=32 --rates=1,5,10,20,25,30,40,50
 *   $ ./sweep_cli --mode=sim --n=8 --rates=5,15,25 --ms=2 --block=16
 *   $ ./sweep_cli --mode=both --n=8 --rates=10,25 --jobs=4
 *
 * Columns: mode,n,req_per_ms,block_words,efficiency,row_util,
 * col_util,resp_ns
 *
 * A malformed or out-of-range number (rates must be > 0, --ms > 0,
 * --inv in [0, 0.8], --fault-drop in [0, 1]) exits 2 with one stderr
 * line naming the flag.
 *
 * Parallelism:
 *   --jobs=N               run simulation points on N worker threads
 *                          (0 = all hardware threads; default 1).
 *                          Each point's seed is derived from the base
 *                          seed and the point's index, and rows are
 *                          emitted in rate order, so the CSV is
 *                          byte-identical for any job count.
 *   --sim-threads=N        run each *single* simulation on the
 *                          window-phased parallel engine with N
 *                          workers (0 = classic sequential engine;
 *                          default). Results are bit-identical for
 *                          any N >= 1 (see docs/PERFORMANCE.md,
 *                          "Parallel single-simulation engine"), but
 *                          the engine is a distinct canonical
 *                          schedule from N=0. Owns the worker pool,
 *                          so it forces --jobs=1. Metrics sampling,
 *                          profiling and tracing compose with it (a
 *                          profiled or traced run executes on one
 *                          thread; output is identical for any N);
 *                          fault injection forces it back to 0, with
 *                          one stderr line naming the flag
 *                          (sim/sim_threads_policy.hh).
 *   --par-stats-out=f.json per-shard engine telemetry (lane/worker
 *                          event attribution, phase timing, realized
 *                          vs projected speedup); needs
 *                          --sim-threads>=1. Covers the last
 *                          simulated point, like the trace files.
 *
 * Observability (sim mode):
 *   --trace-out=t.json     Chrome trace-event JSON (Perfetto-viewable;
 *                          also readable by `mcube_report trace`)
 *   --trace-cap=N          trace ring capacity (default 65536 events)
 *   --metrics-out=m.jsonl  interval metrics snapshots, one JSON/line
 *   --metrics-period=T     snapshot period in ticks (default 50000)
 *   --fault-drop=P         drop requests with probability P (enables
 *                          the transaction watchdog), so recovery
 *                          chains appear in the trace
 *   --fault-plan=f.json    run every point under a full FaultPlan
 *                          loaded from JSON (the same shape the fuzz
 *                          campaign's repro artifacts and
 *                          FaultPlan::toJson emit). Fail-stop specs
 *                          get the complete degradation machinery:
 *                          watchdog detection, quarantine and
 *                          epoch-based reconfiguration. A malformed
 *                          plan exits 4 with the parse reason
 *                          (distinct from "cannot open", exit 2).
 *   --profile-out=p.json   self-profile of the *simulator* (host time
 *                          by kind/component/domain, event-queue
 *                          profile, embedded folded stacks); read it
 *                          with `mcube_report prof` or turn it into
 *                          flamegraph.pl input with
 *                          `mcube_report folded`
 *   --progress             heartbeat on stderr while points run
 *                          (points done/total, events/s, ETA).
 *                          Off by default; forced off when stderr is
 *                          not a TTY so piped runs stay clean.
 *   --seed=S               system base seed (sim mode); the effective
 *                          seed and full configuration are echoed in
 *                          the '#' header line, so a saved CSV is
 *                          always re-runnable
 *
 * Tracing, metrics snapshots and self-profiling write one file per
 * run, which every point would overwrite: requesting them forces
 * --jobs=1 (with a warning). With several --rates, the files cover the
 * *last* simulated point (each point truncates them); use a single
 * rate when tracing or profiling.
 *
 * Robustness (docs/ROBUSTNESS.md):
 *   --journal=FILE         append each completed simulation point to
 *                          an fsync'd JSONL journal (keyed by the
 *                          effective configuration + git revision)
 *   --resume               skip points the journal already records,
 *                          emitting their journaled rows verbatim —
 *                          the union of an interrupted + resumed
 *                          sweep is byte-identical to an
 *                          uninterrupted one
 *   --isolate              fork each point into a resource-limited
 *                          worker process (crash/OOM/timeout is
 *                          triaged per point, not per sweep)
 *   --deadline-s=T         per-point wall-clock deadline when
 *                          isolating (default 300; 0 = off)
 *   --heartbeat-s=T        max heartbeat silence before a point is
 *                          triaged Stalled (default 0 = off)
 *   --rss-mb=M             per-point address-space cap when isolating
 *                          (default 0 = off)
 *
 * SIGINT/SIGTERM drain gracefully: no new point starts, in-flight
 * points finish, the partial CSV and journal stay valid (exit
 * 128+signal); a second signal kills immediately.
 */

#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "core/system.hh"
#include "fault/fault_injector.hh"
#include "fault/progress_monitor.hh"
#include "fault/reconfig.hh"
#include "mva/mva_model.hh"
#include "proc/mix_workload.hh"
#include "run/crash_handler.hh"
#include "run/provenance.hh"
#include "run/shutdown.hh"
#include "run/supervisor.hh"
#include "run/work_journal.hh"
#include "sim/parallel_engine.hh"
#include "sim/profiler.hh"
#include "sim/sim_threads_policy.hh"
#include "sim/sweep_runner.hh"
#include "trace/metrics_sampler.hh"
#include "trace/trace_event.hh"

using namespace mcube;

namespace
{

struct Options
{
    std::string mode = "both";
    unsigned n = 8;
    std::vector<double> rates = {5, 10, 15, 20, 25, 30, 40, 50};
    unsigned block = 16;
    double simMs = 2.0;
    double invFrac = 0.20;
    unsigned jobs = 1;
    unsigned simThreads = 0;
    std::string parStatsOut;
    std::string traceOut;
    std::size_t traceCap = 1 << 16;
    std::string metricsOut;
    Tick metricsPeriod = 50'000;
    double faultDrop = 0.0;
    std::string faultPlanPath;
    FaultPlan faultPlan;
    bool haveFaultPlan = false;
    std::string profileOut;
    bool progress = false;
    std::uint64_t seed = SystemParams{}.seed;
    std::string journal;
    bool resume = false;
    bool isolate = false;
    double deadlineS = 300.0;
    double heartbeatS = 0.0;
    std::uint64_t rssMb = 0;
};

/** Parse all of @p s as a finite number. */
bool
parseNumber(const std::string &s, double &out)
{
    char *end = nullptr;
    errno = 0;
    out = std::strtod(s.c_str(), &end);
    return !s.empty() && *end == '\0' && errno == 0 && std::isfinite(out);
}

/** Parse all of @p s as an unsigned decimal integer that fits @p T. */
template <class T>
bool
parseNumber(const std::string &s, T &out)
{
    if (s.empty() || !std::isdigit(static_cast<unsigned char>(s[0])))
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (*end != '\0' || errno != 0 || v > std::numeric_limits<T>::max())
        return false;
    out = static_cast<T>(v);
    return true;
}

/** Parse a comma-separated list of numbers (empty items skipped). */
bool
parseList(const std::string &s, std::vector<double> &out)
{
    out.clear();
    std::istringstream iss(s);
    std::string tok;
    while (std::getline(iss, tok, ',')) {
        if (tok.empty())
            continue;
        double v = 0.0;
        if (!parseNumber(tok, v))
            return false;
        out.push_back(v);
    }
    return true;
}

/** Print "sweep_cli: <msg>" as the one line of a usage error. */
bool
usageError(const std::string &msg)
{
    std::cerr << "sweep_cli: " << msg << "\n";
    return false;
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a.rfind("--", 0) != 0)
            return usageError("bad argument: " + a);
        auto eq = a.find('=');
        // `--resume` and `--resume=1` are equivalent: a bare flag
        // means "on".
        std::string key = eq == std::string::npos
                              ? a.substr(2)
                              : a.substr(2, eq - 2);
        std::string val =
            eq == std::string::npos ? "1" : a.substr(eq + 1);
        bool ok = true;
        if (key == "mode")
            opt.mode = val;
        else if (key == "n")
            ok = parseNumber(val, opt.n);
        else if (key == "rates")
            ok = parseList(val, opt.rates);
        else if (key == "block")
            ok = parseNumber(val, opt.block);
        else if (key == "ms")
            ok = parseNumber(val, opt.simMs);
        else if (key == "inv")
            ok = parseNumber(val, opt.invFrac);
        else if (key == "jobs")
            ok = parseNumber(val, opt.jobs);
        else if (key == "sim-threads")
            ok = parseNumber(val, opt.simThreads);
        else if (key == "par-stats-out")
            opt.parStatsOut = val;
        else if (key == "trace-out")
            opt.traceOut = val;
        else if (key == "trace-cap")
            ok = parseNumber(val, opt.traceCap);
        else if (key == "metrics-out")
            opt.metricsOut = val;
        else if (key == "metrics-period")
            ok = parseNumber(val, opt.metricsPeriod);
        else if (key == "fault-drop")
            ok = parseNumber(val, opt.faultDrop);
        else if (key == "fault-plan")
            opt.faultPlanPath = val;
        else if (key == "profile-out")
            opt.profileOut = val;
        else if (key == "progress")
            opt.progress = val != "0";
        else if (key == "seed")
            ok = parseNumber(val, opt.seed);
        else if (key == "journal")
            opt.journal = val;
        else if (key == "resume")
            opt.resume = val != "0";
        else if (key == "isolate")
            opt.isolate = val != "0";
        else if (key == "deadline-s")
            ok = parseNumber(val, opt.deadlineS);
        else if (key == "heartbeat-s")
            ok = parseNumber(val, opt.heartbeatS);
        else if (key == "rss-mb")
            ok = parseNumber(val, opt.rssMb);
        else
            return usageError("unknown option: --" + key);
        if (!ok)
            return usageError("--" + key + ": '" + val
                              + "' is not a valid number");
    }
    if (opt.mode != "mva" && opt.mode != "sim" && opt.mode != "both")
        return usageError("--mode must be mva, sim or both");
    if (opt.n < 2)
        return usageError("--n must be >= 2");
    if (opt.rates.empty())
        return usageError("--rates must list at least one rate");
    for (double r : opt.rates)
        if (r <= 0)
            return usageError("--rates must all be > 0");
    if (opt.block == 0)
        return usageError("--block must be > 0");
    // The run length is cast to a 64-bit tick count (1 tick = 1 ns).
    if (opt.simMs <= 0 || opt.simMs >= 1e13)
        return usageError("--ms must be > 0 and < 1e13");
    if (opt.invFrac < 0 || opt.invFrac > 0.8)
        return usageError("--inv must be in [0, 0.8]");
    if (opt.faultDrop < 0 || opt.faultDrop > 1)
        return usageError("--fault-drop must be in [0, 1]");
    if (opt.metricsPeriod == 0)
        return usageError("--metrics-period must be > 0");
    return true;
}

/**
 * Load --fault-plan. Exit codes follow the artifact-shape convention
 * (tools/fuzz_campaign): 0 ok, 2 cannot open, 4 the file itself is
 * malformed — with faultPlanParseError's reason, so an unknown
 * fault-kind string is called out by name instead of being silently
 * defaulted.
 */
int
loadFaultPlan(Options &opt)
{
    if (opt.faultPlanPath.empty())
        return 0;
    std::ifstream in(opt.faultPlanPath);
    if (!in) {
        std::cerr << "sweep_cli: cannot open " << opt.faultPlanPath
                  << "\n";
        return 2;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    std::string err;
    Json j = Json::parse(ss.str(), &err);
    if (!err.empty()) {
        std::cerr << "sweep_cli: " << opt.faultPlanPath
                  << ": bad JSON: " << err << "\n";
        return 4;
    }
    if (std::string why = faultPlanParseError(j); !why.empty()) {
        std::cerr << "sweep_cli: " << opt.faultPlanPath << ": " << why
                  << "\n";
        return 4;
    }
    if (!faultPlanFromJson(j, opt.faultPlan)) {
        std::cerr << "sweep_cli: " << opt.faultPlanPath
                  << ": fault plan does not parse\n";
        return 4;
    }
    opt.haveFaultPlan = true;
    return 0;
}

std::string
mvaRow(const Options &opt, double rate)
{
    MvaParams p;
    p.n = opt.n;
    p.requestsPerMs = rate;
    p.blockWords = opt.block;
    p.fracWriteUnmod = opt.invFrac;
    p.fracReadUnmod = 0.8 - opt.invFrac;
    MvaResult r = MvaModel(p).solve();
    std::ostringstream os;
    os << "mva," << opt.n << ',' << rate << ',' << opt.block << ','
       << r.efficiency << ',' << r.rowUtilization << ','
       << r.colUtilization << ',' << r.responseTimeNs << '\n';
    return os.str();
}

/**
 * stderr heartbeat for long sweeps (--progress). Every write is one
 * buffered fputs, so concurrent workers cannot shear a line; the
 * carriage return keeps a TTY to a single status line. Mid-point
 * beats ride the ProgressMonitor's periodic check under either
 * engine; a livelocked point completes nothing, so its beats stop.
 */
struct SweepProgress
{
    std::size_t total = 0;
    std::chrono::steady_clock::time_point t0 =
        std::chrono::steady_clock::now();
    std::atomic<std::size_t> done{0};
    std::atomic<std::uint64_t> events{0};

    void beat(std::uint64_t live_events)
    {
        double s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
        std::size_t d = done.load(std::memory_order_relaxed);
        double ev = static_cast<double>(
            events.load(std::memory_order_relaxed) + live_events);
        double eta =
            d ? s * static_cast<double>(total - d) / static_cast<double>(d)
              : 0.0;
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "\r[sweep] %zu/%zu points, %.2fM events/s%s%.0fs   ",
                      d, total, s > 0 ? ev / s / 1e6 : 0.0,
                      d ? ", ETA " : ", ETA >", eta);
        std::fputs(buf, stderr);
        std::fflush(stderr);
    }

    void pointDone(std::uint64_t point_events)
    {
        events.fetch_add(point_events, std::memory_order_relaxed);
        done.fetch_add(1, std::memory_order_relaxed);
        beat(0);
    }

    void finish() const
    {
        std::fputc('\n', stderr);
        std::fflush(stderr);
    }
};

std::string
simRow(const Options &opt, double rate, std::uint64_t seed,
       const run::Heartbeat *hb = nullptr, SweepProgress *prog = nullptr)
{
    // Self-profiling of the host: activated before the system is
    // built so construction-time scheduling is attributed too. The
    // profiler never touches simulation state, so the row is
    // byte-identical with profiling on or off.
    const bool profiling = !opt.profileOut.empty();
    SimProfiler prof;
    if (profiling)
        prof.activate();

    SystemParams sp;
    sp.n = opt.n;
    sp.seed = seed;
    sp.simThreads = opt.simThreads;
    sp.bus.blockWords = opt.block;
    if (opt.faultDrop > 0.0 || opt.haveFaultPlan)
        sp.ctrl.requestTimeoutTicks = 500'000;
    MulticubeSystem sys(sp);

    // Crash diagnosis + supervised-worker liveness (observation only;
    // the row stays byte-identical with or without either attached).
    // The monitor beats only when a transaction completed since its
    // last check (or none is outstanding), so a livelocked point goes
    // silent and the supervisor triages it as Stalled.
    run::ScopedCrashContext crashCtx(
        [&sys] { return sys.dumpPendingState(); });
    std::unique_ptr<ProgressMonitor> monitor;
    const bool beating = hb && hb->active();
    if (beating || prog) {
        if (beating)
            hb->beat();
        ProgressMonitorParams mp;
        mp.onProgress = [hb, beating, prog, &sys] {
            if (beating)
                hb->beat();
            if (prog)
                prog->beat(sys.eventQueue().eventsExecuted());
        };
        monitor = std::make_unique<ProgressMonitor>(sys, mp);
        monitor->start();
    }

    const bool tracing = !opt.traceOut.empty();
    TransactionTracer tracer(opt.traceCap);
    if (tracing)
        tracer.activate();

    std::unique_ptr<FaultInjector> inj;
    std::unique_ptr<ReconfigurationManager> reconfig;
    if (opt.haveFaultPlan) {
        inj = std::make_unique<FaultInjector>(sys, opt.faultPlan);
        inj->regStats(sys.statistics());
        // Fail-stop specs need the full degradation machinery; no
        // checker here — sweeps measure throughput, the coherence
        // oracle lives in the tests and the fuzz campaign.
        if (ReconfigurationManager::planNeedsReconfig(opt.faultPlan)) {
            reconfig = std::make_unique<ReconfigurationManager>(
                sys, opt.faultPlan);
            reconfig->regStats(sys.statistics());
        }
    } else if (opt.faultDrop > 0.0) {
        inj = std::make_unique<FaultInjector>(
            sys, FaultPlan::dropRequests(opt.faultDrop));
    }

    std::ofstream metrics;
    std::unique_ptr<MetricsSampler> sampler;
    if (!opt.metricsOut.empty()) {
        metrics.open(opt.metricsOut);
        sampler = std::make_unique<MetricsSampler>(
            sys, opt.metricsPeriod, metrics);
        sampler->start();
    }

    MixParams mix;
    mix.requestsPerMs = rate;
    mix.fracWriteUnmod = opt.invFrac;
    mix.fracReadUnmod = 0.8 - opt.invFrac;
    MixWorkload wl(sys, mix);
    wl.start();
    sys.run(static_cast<Tick>(opt.simMs * 1e6));
    wl.stop();
    // Sample bus utilization at workload end: it is a time-average
    // over the measured interval, not over the drain tail.
    double rowUtil = sys.meanBusUtilization(0);
    double colUtil = sys.meanBusUtilization(1);
    if (sampler)
        sampler->stop();  // final sample covers the run's tail
    sys.drain();

    if (tracing) {
        tracer.deactivate();
        std::ofstream out(opt.traceOut);
        tracer.exportChromeJson(out);
    }
    if (profiling) {
        prof.deactivate();
        std::ofstream out(opt.profileOut);
        prof.exportJson(out);
    }
    if (!opt.parStatsOut.empty() && sys.parallelEngine()) {
        std::ofstream out(opt.parStatsOut);
        sys.parallelEngine()->telemetryJson(out);
    }
    if (prog)
        prog->pointDone(sys.eventQueue().eventsExecuted());

    std::ostringstream os;
    os << "sim," << opt.n << ',' << rate << ',' << opt.block << ','
       << wl.efficiency() << ',' << rowUtil << ',' << colUtil << ','
       << wl.meanLatency() << '\n';
    return os.str();
}

/** Canonical identity of this sweep: everything that determines what
 *  the simulated rows contain (not how they are executed — jobs /
 *  isolation / deadlines don't belong in the key). */
std::string
sweepIdentity(const Options &opt)
{
    std::ostringstream oss;
    oss << "sweep_cli|n=" << opt.n << "|seed=" << opt.seed
        << "|block=" << opt.block << "|ms=" << opt.simMs
        << "|inv=" << opt.invFrac << "|drop=" << opt.faultDrop;
    // The parallel engine is its own canonical schedule, so journaled
    // rows from it must not satisfy a sequential resume (or vice
    // versa). The *worker count* is deliberately absent: results are
    // identical for every --sim-threads >= 1. Appended only when
    // active so pre-existing sequential journals keep their identity.
    if (opt.simThreads > 0)
        oss << "|parallel=1";
    // The plan's *content* (not its path) determines the rows.
    if (opt.haveFaultPlan)
        oss << "|plan=" << toJson(opt.faultPlan).dump(-1);
    oss << "|rates=";
    for (std::size_t i = 0; i < opt.rates.size(); ++i)
        oss << (i ? "," : "") << opt.rates[i];
    oss << "|rev=" << run::gitRevision();
    return oss.str();
}

} // namespace

int
main(int argc, char **argv)
{
    run::installCrashHandler("sweep_cli");

    Options opt;
    if (!parseArgs(argc, argv, opt))
        return 2;
    if (int rc = loadFaultPlan(opt); rc != 0)
        return rc;

    run::GracefulShutdown::install();

    unsigned jobs = sweep::resolveJobs(opt.jobs);
    const bool observing = !opt.traceOut.empty()
                        || !opt.metricsOut.empty()
                        || !opt.profileOut.empty();
    if (jobs > 1 && observing) {
        std::cerr << "sweep_cli: every point would write the same "
                     "trace/metrics/profile file; forcing --jobs=1\n";
        jobs = 1;
    }
    // Tracing, metrics sampling and profiling compose with the
    // parallel single-simulation engine; fault injection still needs
    // the sequential engine. The policy — and the exact warning text
    // naming each forcing flag — lives in the library so tests can
    // assert it (sim/sim_threads_policy.hh). When the engine *is*
    // active it owns the worker pool — point-level --jobs parallelism
    // would oversubscribe the host, so jobs collapses to 1.
    {
        SimThreadsRequest req;
        req.simThreads = opt.simThreads;
        req.faultDrop = opt.faultDrop > 0.0;
        req.faultPlan = opt.haveFaultPlan;
        SimThreadsDecision dec = resolveSimThreads(req);
        for (const std::string &w : dec.warnings)
            std::cerr << "sweep_cli: " << w << "\n";
        opt.simThreads = dec.simThreads;
        if (opt.simThreads > 0 && jobs > 1) {
            std::cerr << "sweep_cli: --sim-threads owns the worker "
                         "pool; forcing --jobs=1\n";
            jobs = 1;
        }
    }
    if (!opt.parStatsOut.empty() && opt.simThreads == 0)
        std::cerr << "sweep_cli: --par-stats-out needs "
                     "--sim-threads>=1; ignoring\n";
    // A heartbeat on a pipe would pollute captured stderr (CI logs,
    // 2>file); only a human at a terminal gets one.
    if (opt.progress && !isatty(fileno(stderr)))
        opt.progress = false;

    const bool simulating = opt.mode == "sim" || opt.mode == "both";
    const bool isolate =
        opt.isolate && simulating && run::Supervisor::supported();
    if (opt.isolate && !isolate && simulating)
        std::cerr << "sweep_cli: process isolation unavailable on "
                     "this platform; running in-process\n";

    // Echo the effective configuration (seed included) ahead of the
    // data so any CSV on disk is re-runnable as-is. '#' lines are
    // comments to downstream tooling.
    std::cout << "# sweep_cli --mode=" << opt.mode << " --n=" << opt.n
              << " --seed=" << opt.seed << " --block=" << opt.block
              << " --ms=" << opt.simMs << " --inv=" << opt.invFrac;
    if (opt.simThreads > 0)
        std::cout << " --sim-threads=" << opt.simThreads;
    if (opt.faultDrop > 0.0)
        std::cout << " --fault-drop=" << opt.faultDrop;
    if (opt.haveFaultPlan)
        std::cout << " --fault-plan=" << opt.faultPlanPath;
    std::cout << " --rates=";
    for (std::size_t i = 0; i < opt.rates.size(); ++i)
        std::cout << (i ? "," : "") << opt.rates[i];
    std::cout << "\n";
    std::cout << "mode,n,req_per_ms,block_words,efficiency,row_util,"
                 "col_util,resp_ns\n";

    // Journal of completed simulation points. (MVA rows are a closed-
    // form model — recomputing them is cheaper than journaling them.)
    run::WorkJournal journal;
    if (!opt.journal.empty() && simulating) {
        if (!opt.resume) {
            std::error_code ec;
            std::filesystem::remove(opt.journal, ec);
        }
        Json hdr = Json::object();
        hdr.set("tool", "sweep_cli");
        hdr.set("identity", sweepIdentity(opt));
        std::string jerr;
        if (!journal.open(opt.journal,
                          run::WorkJournal::keyOf(sweepIdentity(opt)),
                          hdr, &jerr)) {
            std::cerr << "sweep_cli: journal: " << jerr << "\n";
            return 2;
        }
    }

    // Simulation points are independent: fan them out, then emit the
    // buffered rows in rate order so the CSV never depends on job
    // count or completion order. Per-point seeds come from the base
    // seed and the point index for the same reason. Journaled points
    // are emitted verbatim from their recorded rows, so a resumed
    // sweep's data rows are byte-identical to an uninterrupted one.
    std::vector<std::string> simRows(opt.rates.size());
    std::vector<std::string> simNote(opt.rates.size());
    std::vector<std::size_t> pending;
    bool interrupted = false;
    SweepProgress progress;
    if (simulating) {
        for (std::size_t i = 0; i < opt.rates.size(); ++i) {
            const std::string item = "sim_" + std::to_string(i);
            if (const Json *rec = journal.find(item))
                simRows[i] = rec->str("row");
            else
                pending.push_back(i);
        }
        SweepProgress *prog = nullptr;
        if (opt.progress) {
            progress.total = pending.size();
            prog = &progress;
        }

        auto stop = [] { return run::GracefulShutdown::requested(); };
        auto recordRow = [&](std::size_t i) {
            if (!journal.isOpen())
                return;
            Json e = Json::object();
            e.set("row", simRows[i]);
            journal.record("sim_" + std::to_string(i), e);
        };

        if (isolate) {
            run::WorkerLimits lim;
            lim.wallSeconds = opt.deadlineS;
            lim.heartbeatSeconds = opt.heartbeatS;
            lim.rssBytes = opt.rssMb * (1ull << 20);
            run::Supervisor sup(lim);
            sup.runPool(
                pending.size(), jobs,
                [&](std::size_t k) -> run::Supervisor::ChildFn {
                    std::size_t i = pending[k];
                    return [&opt, i](const run::Heartbeat &hb,
                                     std::string &resultOut) {
                        resultOut =
                            simRow(opt, opt.rates[i],
                                   sweep::pointSeed(opt.seed, i), &hb);
                        return 0;
                    };
                },
                [&](std::size_t k, run::WorkerOutcome &&out) {
                    std::size_t i = pending[k];
                    // Workers are forked processes: the heartbeat
                    // lives in the parent and beats per completed
                    // point (event counts stay in the child).
                    if (prog)
                        prog->pointDone(0);
                    if (out.triage == run::Triage::Clean) {
                        simRows[i] = out.result;
                        recordRow(i);
                        return;
                    }
                    // A dead point is *not* journaled: --resume
                    // retries it.
                    std::ostringstream os;
                    os << "# sim point " << i << " (rate "
                       << opt.rates[i] << "): worker "
                       << run::toString(out.triage);
                    if (out.termSignal)
                        os << " (signal " << out.termSignal << ")";
                    os << "\n";
                    simNote[i] = os.str();
                },
                stop);
        } else {
            sweep::SweepRunner runner(jobs);
            runner.forEach(
                pending.size(),
                [&](std::size_t k) {
                    std::size_t i = pending[k];
                    simRows[i] =
                        simRow(opt, opt.rates[i],
                               sweep::pointSeed(opt.seed, i), nullptr,
                               prog);
                    recordRow(i);
                },
                stop);
        }
        if (prog)
            prog->finish();
        interrupted = run::GracefulShutdown::requested();
    }

    bool missing = false;
    for (std::size_t i = 0; i < opt.rates.size(); ++i) {
        if (opt.mode == "mva" || opt.mode == "both")
            std::cout << mvaRow(opt, opt.rates[i]);
        if (simulating) {
            if (!simRows[i].empty()) {
                std::cout << simRows[i];
            } else {
                missing = true;
                std::cout << (!simNote[i].empty()
                                  ? simNote[i]
                                  : "# sim point " + std::to_string(i)
                                        + " not run (interrupted)\n");
            }
        }
    }

    if (journal.isOpen() && !missing)
        journal.finish();
    if (interrupted) {
        std::cerr << "sweep_cli: interrupted; partial CSV emitted";
        if (journal.isOpen())
            std::cerr << ", resume with --journal=" << opt.journal
                      << " --resume";
        std::cerr << "\n";
        return run::GracefulShutdown::exitCode();
    }
    return missing ? 1 : 0;
}
