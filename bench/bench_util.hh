/**
 * @file
 * Shared helpers for the experiment programs: run a MixWorkload
 * simulation or an MVA solve for one configuration, and report each
 * point of a sweep.
 *
 * Every bench_* program is a plain main() that computes its points
 * one after another and hands each one to a Reporter, which prints a
 * row and records the point in BENCH_<bench>.json in the working
 * directory: the headline metrics, the flattened stat tree of a
 * simulated system, host wall time and the git revision — the file a
 * regression dashboard diffs across commits. The file is rewritten
 * through a temp file and an atomic rename after every point, so an
 * aborting program keeps every point recorded so far and a reader
 * never sees a truncated file.
 */

#ifndef MCUBE_BENCH_BENCH_UTIL_HH
#define MCUBE_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <map>
#include <string>
#include <utility>

#include "core/system.hh"
#include "mva/mva_model.hh"
#include "proc/mix_workload.hh"
#include "run/crash_handler.hh"
#include "run/provenance.hh"
#include "sim/json.hh"
#include "sim/stats.hh"
#include "sim/sweep_runner.hh"

namespace mcube::bench
{

/** Result of one simulated workload run. */
struct SimPoint
{
    double efficiency = 0.0;
    double rowUtil = 0.0;
    double colUtil = 0.0;
    double meanLatencyNs = 0.0;
    std::uint64_t transactions = 0;
    std::uint64_t busOps = 0;
    /** Host wall-clock seconds the simulation took. */
    double wallSeconds = 0.0;
    /** Events the event queue executed during the run. */
    std::uint64_t simEvents = 0;
    /** Final simulated tick. */
    std::uint64_t simTicks = 0;
    /** Flattened stat tree of the simulated system. */
    FlatStats stats;
};

/** Run the synthetic mix on an n x n machine for @p sim_ms of
 *  simulated time. */
inline SimPoint
runMixSim(unsigned n, const MixParams &mix, double sim_ms = 2.0,
          const SystemParams *base = nullptr)
{
    SystemParams sp;
    if (base)
        sp = *base;
    sp.n = n;
    auto wall_start = std::chrono::steady_clock::now();
    MulticubeSystem sys(sp);
    MixWorkload wl(sys, mix);
    wl.start();
    sys.run(static_cast<Tick>(sim_ms * 1e6));
    wl.stop();
    sys.drain();

    SimPoint out;
    out.efficiency = wl.efficiency();
    out.rowUtil = sys.meanBusUtilization(0);
    out.colUtil = sys.meanBusUtilization(1);
    out.meanLatencyNs = wl.meanLatency();
    out.transactions = wl.totalCompleted();
    out.busOps = sys.totalBusOps();
    out.simEvents = sys.eventQueue().eventsExecuted();
    out.simTicks = sys.eventQueue().now();
    out.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now()
                                      - wall_start)
            .count();
    sys.statistics().flatten(out.stats);
    return out;
}

/** MVA solve for the same configuration. */
inline MvaResult
runMva(unsigned n, double rate, const MvaParams *base = nullptr)
{
    MvaParams p;
    if (base)
        p = *base;
    p.n = n;
    p.requestsPerMs = rate;
    return MvaModel(p).solve();
}

/** Flat name->value metrics of one bench point. */
using Metrics = std::map<std::string, double>;

/** @p p's headline metrics plus its stat tree as a Metrics map. */
inline Metrics
toMetrics(const SimPoint &p)
{
    Metrics m(p.stats.begin(), p.stats.end());
    m["efficiency"] = p.efficiency;
    m["row_util"] = p.rowUtil;
    m["col_util"] = p.colUtil;
    m["mean_latency_ns"] = p.meanLatencyNs;
    m["transactions"] = static_cast<double>(p.transactions);
    m["bus_ops"] = static_cast<double>(p.busOps);
    m["wall_seconds"] = p.wallSeconds;
    m["sim_events"] = static_cast<double>(p.simEvents);
    m["sim_ticks"] = static_cast<double>(p.simTicks);
    return m;
}

/** @p r's headline metrics. */
inline Metrics
toMetrics(const MvaResult &r)
{
    return {{"efficiency", r.efficiency},
            {"row_util", r.rowUtilization},
            {"col_util", r.colUtilization},
            {"resp_ns", r.responseTimeNs}};
}

/**
 * Point @p index of a simulated sweep: runMixSim with the system and
 * workload seeds derived from their base seeds and @p index, so every
 * point runs an independent but reproducible stream.
 */
inline Metrics
mixPoint(std::uint64_t index, unsigned n, MixParams mix,
         double sim_ms = 2.0, SystemParams sp = {})
{
    sp.seed = sweep::pointSeed(sp.seed, index);
    mix.seed = sweep::pointSeed(mix.seed, index);
    return toMetrics(runMixSim(n, mix, sim_ms, &sp));
}

/**
 * Prints and records the points of one experiment program. Construct
 * it first thing in main(): a program takes no arguments, so any
 * argument prints a usage line and exits 2; otherwise it arms the
 * crash handler.
 */
class Reporter
{
  public:
    Reporter(int argc, char **argv, std::string bench)
        : bench(std::move(bench))
    {
        const char *prog = argc > 0 && argv[0] ? argv[0] : "bench";
        if (argc > 1) {
            std::fprintf(stderr,
                         "usage: %s (takes no arguments; writes "
                         "BENCH_%s.json in the working directory)\n",
                         prog, this->bench.c_str());
            std::exit(2);
        }
        run::installCrashHandler(prog);
    }

    /**
     * Compute the point @p label with @p compute, print a row showing
     * the metrics named in @p columns, and record the point. Its host
     * time is added as "wall_seconds" unless @p compute reports its
     * own (runMixSim times the simulation alone).
     */
    template <class Fn>
    void
    point(const std::string &label,
          std::initializer_list<const char *> columns, Fn &&compute)
    {
        const auto t0 = std::chrono::steady_clock::now();
        Metrics m = compute();
        m.emplace("wall_seconds",
                  std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count());
        std::printf("%-26s", label.c_str());
        for (const char *c : columns)
            std::printf(" %s=%.6g", c, m.at(c));
        std::printf("  %.1f ms\n", m.at("wall_seconds") * 1e3);
        std::fflush(stdout);
        points[label] = std::move(m);
        flush();
    }

  private:
    /** Write BENCH_<bench>.json atomically (temp file + rename). */
    void
    flush() const
    {
        Json all = Json::object();
        for (const auto &[label, metrics] : points) {
            // Round-trippable doubles (%.17g; non-finite as null): a
            // dashboard diffing artifacts must see the exact values.
            Json m = Json::object();
            for (const auto &[name, value] : metrics)
                m.append(name, value);
            all.append(label, std::move(m));
        }
        Json j = Json::object();
        j.set("bench", bench);
        j.set("git_rev", run::gitRevision());
        j.set("points", std::move(all));

        const std::string final_name = "BENCH_" + bench + ".json";
        const std::string tmp_name = final_name + ".tmp";
        {
            std::ofstream os(tmp_name,
                             std::ios::out | std::ios::trunc);
            if (!os)
                return;
            os << j.dump(2) << "\n";
            if (!os.flush())
                return;
        }
        std::rename(tmp_name.c_str(), final_name.c_str());
    }

    std::string bench;
    std::map<std::string, Metrics> points;
};

} // namespace mcube::bench

#endif // MCUBE_BENCH_BENCH_UTIL_HH
