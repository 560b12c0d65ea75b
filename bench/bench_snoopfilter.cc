/**
 * @file
 * Snoop fast-reject filter A-B bench: the same MixWorkload run, per
 * machine size, with the filter enabled and disabled. Both arms use
 * the same seed index, so the two runs are required to be
 * bit-identical in simulated results — this bench hard-fails on any
 * divergence in the determinism columns, which would mean a reject
 * skipped an observable snoop.
 *
 * Reported per size:
 *
 *   events_per_sec_{on,off}  host-throughput of each arm;
 *   filter_speedup           on / off — whether the filter still
 *                            pays for itself;
 *   filter_reject_fraction   share of snoop decisions fast-rejected.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_util.hh"

using namespace mcube;
using namespace mcube::bench;

namespace
{

/** Exact-match columns: the filter may only change wall clock. */
const char *const kDeterminismKeys[] = {"sim_events", "sim_ticks",
                                        "transactions", "efficiency"};

Metrics
runFilterAB(std::uint64_t index, unsigned n)
{
    MixParams mix;
    mix.requestsPerMs = 25.0;
    const double sim_ms = n >= 32 ? 0.5 : (n >= 16 ? 2.0 : 8.0);
    const Metrics on = mixPoint(index, n, mix, sim_ms);
    SystemParams off_params;
    off_params.ctrl.snoopFilter = false;
    const Metrics off = mixPoint(index, n, mix, sim_ms, off_params);

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
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    Reporter report(argc, argv, "snoopfilter");
    // The seed numbering counts both arms of a size (the off arm
    // reuses the on arm's index), so size i runs at index 2i and its
    // recorded numbers stay comparable across BENCH files.
    std::uint64_t index = 0;
    for (unsigned n : {8u, 16u, 32u}) {
        report.point("n" + std::to_string(n),
                     {"efficiency", "filter_reject_fraction",
                      "filter_speedup"},
                     [&] { return runFilterAB(index, n); });
        index += 2;
    }
    return 0;
}
