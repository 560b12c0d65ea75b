/**
 * @file
 * Snoop fast-reject filter A-B bench: the same MixWorkload run, per
 * machine size, with the filter enabled and disabled. Each pair
 * shares its seed-derivation index, so the two runs are required to
 * be bit-identical in simulated results — this bench hard-fails on
 * any divergence in the determinism columns, which would mean a
 * reject skipped an observable snoop.
 *
 * Reported per size:
 *
 *   events_per_sec_{on,off}  host-throughput of each arm;
 *   filter_speedup           on / off — whether the filter still
 *                            pays for itself;
 *   filter_reject_fraction   share of snoop decisions fast-rejected.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hh"

using namespace mcube;
using namespace mcube::bench;

namespace
{

const std::vector<std::int64_t> kSizes = {8, 16, 32};
constexpr double kRate = 25.0;

std::string
onLabel(unsigned n)
{
    return "filter_on_n" + std::to_string(n);
}

std::string
offLabel(unsigned n)
{
    return "filter_off_n" + std::to_string(n);
}

double
simMsFor(std::int64_t n)
{
    return n >= 32 ? 0.5 : (n >= 16 ? 2.0 : 8.0);
}

const bool kDeclared = [] {
    for (std::int64_t n : kSizes) {
        MixParams mix;
        mix.requestsPerMs = kRate;
        const std::uint64_t idx = SweepCache::instance().size();
        declareMixSim(onLabel(static_cast<unsigned>(n)),
                      static_cast<unsigned>(n), mix, simMsFor(n));
        SystemParams off;
        off.ctrl.snoopFilter = false;
        declareMixSim(offLabel(static_cast<unsigned>(n)),
                      static_cast<unsigned>(n), mix, simMsFor(n), &off,
                      idx);
    }
    return true;
}();

/** Exact-match columns: the filter may only change wall clock. */
const char *const kDeterminismKeys[] = {"sim_events", "sim_ticks",
                                        "transactions", "efficiency"};

void
BM_SnoopFilterAB(benchmark::State &state)
{
    unsigned n = static_cast<unsigned>(state.range(0));
    const Metrics &on = sweepPoint(onLabel(n));
    const Metrics &off = sweepPoint(offLabel(n));

    for (const char *key : kDeterminismKeys) {
        if (on.at(key) != off.at(key)) {
            std::fprintf(stderr,
                         "bench_snoopfilter: DETERMINISM VIOLATION at "
                         "n=%u: %s differs with the filter on (%.17g) "
                         "vs off (%.17g)\n",
                         n, key, on.at(key), off.at(key));
            std::abort();
        }
    }

    const double wall_on = on.at("wall_seconds");
    const double wall_off = off.at("wall_seconds");
    for (auto _ : state)
        state.SetIterationTime(wall_on);

    double eps_on = wall_on > 0 ? on.at("sim_events") / wall_on : 0.0;
    double eps_off =
        wall_off > 0 ? off.at("sim_events") / wall_off : 0.0;

    double hits = 0.0, rejects = 0.0;
    for (const auto &[name, value] : on) {
        if (name.size() >= 11
            && name.compare(name.size() - 11, 11, "filter_hits") == 0)
            hits += value;
        if (name.size() >= 14
            && name.compare(name.size() - 14, 14, "filter_rejects")
                   == 0)
            rejects += value;
    }

    Metrics out;
    out["sim_events"] = on.at("sim_events");
    out["sim_ticks"] = on.at("sim_ticks");
    out["transactions"] = on.at("transactions");
    out["efficiency"] = on.at("efficiency");
    out["wall_seconds_on"] = wall_on;
    out["wall_seconds_off"] = wall_off;
    out["events_per_sec_on"] = eps_on;
    out["events_per_sec_off"] = eps_off;
    out["filter_speedup"] = eps_off > 0 ? eps_on / eps_off : 0.0;
    out["filter_reject_fraction"] =
        hits + rejects > 0 ? rejects / (hits + rejects) : 0.0;

    for (const auto &[name, value] : out)
        state.counters[name] = value;
    BenchJson::instance().record("snoopfilter",
                                 "n" + std::to_string(n), out);
}

} // namespace

BENCHMARK(BM_SnoopFilterAB)
    ->ArgNames({"n"})
    ->ArgsProduct({kSizes})
    ->Iterations(1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

MCUBE_BENCH_MAIN();
