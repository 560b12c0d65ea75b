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
 * A point that crashes prints the system's pending transactions
 * (docs/ROBUSTNESS.md); SIGINT kills the sweep.
 */

#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/system.hh"
#include "fault/fault_injector.hh"
#include "fault/reconfig.hh"
#include "mva/mva_model.hh"
#include "proc/mix_workload.hh"
#include "run/crash_handler.hh"
#include "run/parse_number.hh"
#include "sim/profiler.hh"
#include "sim/sweep_runner.hh"
#include "trace/metrics_sampler.hh"
#include "trace/trace_event.hh"

using namespace mcube;

namespace
{

using run::parseNumber;

struct Options
{
    std::string mode = "both";
    unsigned n = 8;
    std::vector<double> rates = {5, 10, 15, 20, 25, 30, 40, 50};
    unsigned block = 16;
    double simMs = 2.0;
    double invFrac = 0.20;
    unsigned jobs = 1;
    std::string traceOut;
    std::size_t traceCap = 1 << 16;
    std::string metricsOut;
    Tick metricsPeriod = 50'000;
    double faultDrop = 0.0;
    std::string faultPlanPath;
    FaultPlan faultPlan;
    bool haveFaultPlan = false;
    std::string profileOut;
    std::uint64_t seed = SystemParams{}.seed;
};

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
        else if (key == "seed")
            ok = parseNumber(val, opt.seed);
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

std::string
simRow(const Options &opt, double rate, std::uint64_t seed)
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
    sp.bus.blockWords = opt.block;
    if (opt.faultDrop > 0.0 || opt.haveFaultPlan)
        sp.ctrl.requestTimeoutTicks = 500'000;
    MulticubeSystem sys(sp);

    // A crash prints the pending transactions (observation only; the
    // row is byte-identical with or without it).
    run::ScopedCrashContext crashCtx(
        [&sys] { return sys.dumpPendingState(); });

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

    std::ostringstream os;
    os << "sim," << opt.n << ',' << rate << ',' << opt.block << ','
       << wl.efficiency() << ',' << rowUtil << ',' << colUtil << ','
       << wl.meanLatency() << '\n';
    return os.str();
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

    unsigned jobs = sweep::resolveJobs(opt.jobs);
    const bool observing = !opt.traceOut.empty()
                        || !opt.metricsOut.empty()
                        || !opt.profileOut.empty();
    if (jobs > 1 && observing) {
        std::cerr << "sweep_cli: every point would write the same "
                     "trace/metrics/profile file; forcing --jobs=1\n";
        jobs = 1;
    }

    // Echo the effective configuration (seed included) ahead of the
    // data so any CSV on disk is re-runnable as-is. '#' lines are
    // comments to downstream tooling.
    std::cout << "# sweep_cli --mode=" << opt.mode << " --n=" << opt.n
              << " --seed=" << opt.seed << " --block=" << opt.block
              << " --ms=" << opt.simMs << " --inv=" << opt.invFrac;
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

    // Simulation points are independent: fan them out, then emit the
    // buffered rows in rate order so the CSV never depends on job
    // count or completion order. Per-point seeds come from the base
    // seed and the point index for the same reason.
    const bool simulating = opt.mode == "sim" || opt.mode == "both";
    std::vector<std::string> simRows(opt.rates.size());
    if (simulating)
        sweep::SweepRunner(jobs).forEach(
            opt.rates.size(), [&](std::size_t i) {
                simRows[i] = simRow(opt, opt.rates[i],
                                    sweep::pointSeed(opt.seed, i));
            });

    for (std::size_t i = 0; i < opt.rates.size(); ++i) {
        if (opt.mode == "mva" || opt.mode == "both")
            std::cout << mvaRow(opt, opt.rates[i]);
        std::cout << simRows[i];
    }
    return 0;
}
