/**
 * @file
 * Shared helpers for the experiment benches: run a MixWorkload
 * simulation or an MVA solve for one configuration and report the
 * paper's metrics.
 *
 * Simulation points are embarrassingly parallel (each is one
 * single-threaded deterministic MulticubeSystem run), so benches no
 * longer run them inline: every bench *declares* its grid of points
 * into the SweepCache at static-initialization time, and the custom
 * MCUBE_BENCH_MAIN() fans all declared points across `--jobs N`
 * worker threads (default: all hardware threads; MCUBE_BENCH_JOBS
 * also works) before Google Benchmark starts. Each benchmark body
 * then just looks its point up by label. Per-point seeds are derived
 * from (base seed, declaration index), and results are stored by
 * label, so the numbers are bit-identical for any job count.
 *
 * Benches additionally record machine-readable results through
 * BenchJson: each recorded (bench, label) point lands in a
 * BENCH_<bench>.json file in the working directory, carrying the
 * headline metrics, the flattened stat tree of the simulated system,
 * wall time and the git revision — the file a regression dashboard
 * diffs across commits. The file is rewritten via temp-file + atomic
 * rename after every record(), so an aborting bench keeps every point
 * recorded so far and a reader never observes a truncated file.
 */

#ifndef MCUBE_BENCH_BENCH_UTIL_HH
#define MCUBE_BENCH_BENCH_UTIL_HH

#include <benchmark/benchmark.h>

#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/system.hh"
#include "mva/mva_model.hh"
#include "run/crash_handler.hh"
#include "run/provenance.hh"
#include "run/shutdown.hh"
#include "run/work_journal.hh"
#include "sim/json.hh"
#include "sim/stats.hh"
#include "proc/mix_workload.hh"
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

/**
 * The per-binary registry of declared sweep points.
 *
 * declare() (usually at static-init) associates a label with a thunk
 * that computes the point's Metrics; computeAll() — called by
 * MCUBE_BENCH_MAIN before benchmarks run — fans every declared point
 * across a SweepRunner; get() returns the memoized result, computing
 * everything on first use as a fallback. Looking up a label that was
 * never declared is a hard error — a silent default would record
 * wrong numbers.
 */
class SweepCache
{
  public:
    static SweepCache &
    instance()
    {
        static SweepCache cache;
        return cache;
    }

    /** Declared points so far — the seed-derivation index of the next
     *  declarePoint/declareMixSim call. */
    std::size_t size() const { return points.size(); }

    /** Register @p fn under @p label (first declaration wins). */
    void
    declare(const std::string &label, std::function<Metrics()> fn)
    {
        if (index.count(label))
            return;
        index[label] = points.size();
        points.push_back(Point{label, std::move(fn), {}, false});
    }

    /**
     * Compute every declared-but-uncomputed point, in parallel.
     *
     * With MCUBE_BENCH_JOURNAL=<file> set, completed points append to
     * a run::WorkJournal keyed by the declared label set + git
     * revision: a re-run of an interrupted bench loads journaled
     * points instead of re-simulating them. A SIGINT/SIGTERM during
     * the sweep stops dispatch (in-flight points finish and are
     * journaled); MCUBE_BENCH_MAIN then exits 128+signal instead of
     * benchmarking against a partial cache.
     */
    void
    computeAll()
    {
        computed = true;

        run::WorkJournal journal;
        const char *jpath = std::getenv("MCUBE_BENCH_JOURNAL");
        if (jpath && *jpath) {
            std::string ident = "bench";
            for (const auto &p : points)
                ident += "|" + p.label;
            ident += "|rev=" + run::gitRevision();
            Json hdr = Json::object();
            hdr.set("tool", "bench");
            hdr.set("points",
                    static_cast<std::uint64_t>(points.size()));
            std::string err;
            if (!journal.open(jpath, run::WorkJournal::keyOf(ident),
                              hdr, &err)) {
                std::fprintf(stderr,
                             "bench_util: journal: %s (continuing "
                             "without a journal)\n",
                             err.c_str());
            } else {
                for (auto &p : points) {
                    const Json *rec = journal.find(p.label);
                    if (!rec || !rec->isObject())
                        continue;
                    p.result.clear();
                    for (const auto &[k, v] : rec->members())
                        p.result[k] = v.asDouble();
                    p.done = true;
                }
            }
        }

        sweep::SweepRunner runner(jobs());
        runner.forEach(
            points.size(),
            [this, &journal](std::size_t i) {
                if (points[i].done)
                    return;
                points[i].result = points[i].fn();
                points[i].done = true;
                if (journal.isOpen()) {
                    Json m = Json::object();
                    for (const auto &[k, v] : points[i].result)
                        m.set(k, v);
                    journal.record(points[i].label, std::move(m));
                }
            },
            [] { return run::GracefulShutdown::requested(); });

        if (journal.isOpen() && !run::GracefulShutdown::requested())
            journal.finish();
    }

    /** The metrics of @p label (see class comment). */
    const Metrics &
    get(const std::string &label)
    {
        if (!computed)
            computeAll();
        auto it = index.find(label);
        if (it == index.end()) {
            std::fprintf(stderr,
                         "bench_util: sweep point '%s' was never "
                         "declared\n",
                         label.c_str());
            std::abort();
        }
        Point &p = points[it->second];
        if (!p.done) {
            p.result = p.fn();
            p.done = true;
        }
        return p.result;
    }

    /** Worker count: --jobs / MCUBE_BENCH_JOBS, 0 = all hw threads. */
    unsigned
    jobs() const
    {
        if (_jobs != UINT_MAX)
            return sweep::resolveJobs(_jobs);
        if (const char *env = std::getenv("MCUBE_BENCH_JOBS"))
            return sweep::resolveJobs(
                static_cast<unsigned>(std::atoi(env)));
        return sweep::resolveJobs(0);
    }

    void setJobs(unsigned j) { _jobs = j; }

    /**
     * Strip `--jobs=N` (and `-j N` / `-jN`) from the argument vector
     * before Google Benchmark sees it. @return the new argc.
     */
    int
    stripJobsFlag(int argc, char **argv)
    {
        int out = 1;
        for (int i = 1; i < argc; ++i) {
            const char *a = argv[i];
            if (std::strncmp(a, "--jobs=", 7) == 0) {
                setJobs(static_cast<unsigned>(std::atoi(a + 7)));
            } else if (std::strcmp(a, "-j") == 0 && i + 1 < argc) {
                setJobs(static_cast<unsigned>(std::atoi(argv[++i])));
            } else if (std::strncmp(a, "-j", 2) == 0 && a[2] != '\0') {
                setJobs(static_cast<unsigned>(std::atoi(a + 2)));
            } else {
                argv[out++] = argv[i];
            }
        }
        argv[out] = nullptr;
        return out;
    }

  private:
    struct Point
    {
        std::string label;
        std::function<Metrics()> fn;
        Metrics result;
        bool done = false;
    };

    SweepCache() = default;

    std::vector<Point> points;
    std::map<std::string, std::size_t> index;
    bool computed = false;
    unsigned _jobs = UINT_MAX;  //!< UINT_MAX = not set on command line
};

/**
 * Declare a runMixSim point under @p label. The point's system and
 * workload seeds are derived from (configured base seed, declaration
 * index), so every point of a sweep runs an independent — but fully
 * reproducible — stream for any job count.
 *
 * @p seed_index overrides the declaration index used for seed
 * derivation: an A-B pair (e.g. snoop filter on/off) passes its
 * partner's index so both points simulate the bit-identical run and
 * differ only in the toggled knob.
 */
inline void
declareMixSim(const std::string &label, unsigned n,
              const MixParams &mix, double sim_ms = 2.0,
              const SystemParams *base = nullptr,
              std::uint64_t seed_index = std::uint64_t(-1))
{
    SystemParams sp;
    if (base)
        sp = *base;
    const std::uint64_t idx = seed_index != std::uint64_t(-1)
                                  ? seed_index
                                  : SweepCache::instance().size();
    sp.seed = sweep::pointSeed(sp.seed, idx);
    MixParams m = mix;
    m.seed = sweep::pointSeed(m.seed, idx);
    SweepCache::instance().declare(label, [label, n, m, sim_ms, sp] {
        return toMetrics(runMixSim(n, m, sim_ms, &sp));
    });
}

/** Declare an arbitrary point computed by @p fn under @p label. The
 *  point's wall time is measured and added as "wall_seconds" (unless
 *  @p fn already reports one, as runMixSim does). */
inline void
declarePoint(const std::string &label, std::function<Metrics()> fn)
{
    SweepCache::instance().declare(
        label, [fn = std::move(fn)]() -> Metrics {
            auto t0 = std::chrono::steady_clock::now();
            Metrics m = fn();
            m.emplace(
                "wall_seconds",
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
            return m;
        });
}

/** Fetch @p label's metrics (parallel-precomputed on first use). */
inline const Metrics &
sweepPoint(const std::string &label)
{
    return SweepCache::instance().get(label);
}

/**
 * Machine-readable bench-result registry. record() points during the
 * run; each record() rewrites the owning bench's BENCH_<bench>.json
 * through a temp file and an atomic rename, so a crashing or aborted
 * bench loses nothing already recorded and readers never see a
 * partial file.
 */
class BenchJson
{
  public:
    static BenchJson &
    instance()
    {
        static BenchJson reg;
        return reg;
    }

    void
    record(const std::string &bench, const std::string &label,
           Metrics metrics)
    {
        std::lock_guard<std::mutex> g(lock);
        data[bench][label] = std::move(metrics);
        flush(bench);
    }

    /** Record @p p under @p label, stat tree included. */
    void
    record(const std::string &bench, const std::string &label,
           const SimPoint &p)
    {
        record(bench, label, toMetrics(p));
    }

  private:
    BenchJson() = default;

    /** Write BENCH_<bench>.json atomically (temp file + rename). */
    void
    flush(const std::string &bench)
    {
        Json points = Json::object();
        for (const auto &[label, metrics] : data[bench]) {
            // Round-trippable doubles (%.17g; non-finite as null): a
            // dashboard diffing artifacts must see the exact values.
            Json m = Json::object();
            for (const auto &[name, value] : metrics)
                m.append(name, value);
            points.append(label, std::move(m));
        }
        Json j = Json::object();
        j.set("bench", bench);
        j.set("git_rev", run::gitRevision());
        j.set("points", std::move(points));

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

    std::mutex lock;
    std::map<std::string, std::map<std::string, Metrics>> data;
};

} // namespace mcube::bench

/**
 * Bench entry point: arms crash diagnostics and graceful shutdown,
 * strips --jobs, precomputes every declared sweep point across the
 * worker pool (journal-resumable via MCUBE_BENCH_JOURNAL, see
 * SweepCache::computeAll), then hands over to Google Benchmark. An
 * interrupt during the precompute exits 128+signal after the
 * in-flight points drain — BENCH json and the journal keep everything
 * already computed.
 */
#define MCUBE_BENCH_MAIN()                                                  \
    int main(int argc, char **argv)                                         \
    {                                                                       \
        ::mcube::run::installCrashHandler(                                  \
            argv[0] ? argv[0] : "bench");                                   \
        ::mcube::run::GracefulShutdown::install();                          \
        argc = ::mcube::bench::SweepCache::instance().stripJobsFlag(        \
            argc, argv);                                                    \
        ::benchmark::Initialize(&argc, argv);                               \
        if (::benchmark::ReportUnrecognizedArguments(argc, argv))           \
            return 1;                                                       \
        ::mcube::bench::SweepCache::instance().computeAll();                \
        if (::mcube::run::GracefulShutdown::requested()) {                  \
            std::fprintf(stderr,                                            \
                         "bench: interrupted during the sweep "             \
                         "precompute; draining cleanly (set "               \
                         "MCUBE_BENCH_JOURNAL to make a re-run skip "       \
                         "the points already computed)\n");                 \
            return ::mcube::run::GracefulShutdown::exitCode();              \
        }                                                                   \
        ::benchmark::RunSpecifiedBenchmarks();                              \
        ::benchmark::Shutdown();                                            \
        return 0;                                                           \
    }                                                                       \
    int mcube_bench_main_anchor_ = 0

#endif // MCUBE_BENCH_BENCH_UTIL_HH
