/**
 * @file
 * Experiment E8 — the Section 1 motivation: single-bus multis "are
 * limited to some tens of processors", while the Multicube's total
 * bandwidth grows with the machine. Both machines run the same
 * synthetic mix at the same per-processor request rate; the series
 * shows the multi collapsing as processors are added while the grid
 * holds its efficiency (the crossover).
 */

#include <string>

#include "baseline/dancehall.hh"
#include "baseline/multi_workload.hh"
#include "baseline/single_bus_multi.hh"
#include "bench_util.hh"

using namespace mcube;
using namespace mcube::bench;

namespace
{

constexpr double kRate = 25.0;

Metrics
runSingleBusMulti(unsigned procs)
{
    MultiParams p;
    p.numProcessors = procs;
    SingleBusMulti sys(p);
    MixParams mix;
    mix.requestsPerMs = kRate;
    MultiMixWorkload wl(sys, mix);
    wl.start();
    sys.run(2'000'000);
    wl.stop();
    sys.drain();
    return {{"processors", static_cast<double>(procs)},
            {"efficiency", wl.efficiency()},
            {"bus_util", sys.bus().utilization()},
            {"bus_ops",
             static_cast<double>(sys.bus().opsDelivered())}};
}

/**
 * The other Section 1 foil: a multistage-network dance hall with no
 * caching of shared data — every shared *reference* pays the full
 * network round trip. The fair axis is therefore the shared-reference
 * rate: the Multicube turns most shared references into cache hits
 * (its 25 bus-requests/ms budget corresponds to reference rates in
 * the hundreds per ms — see examples/address_stream), while the dance
 * hall's network sees the raw reference rate and collapses as it
 * approaches the round-trip reciprocal.
 */
Metrics
runDancehall(unsigned procs, double ref_rate)
{
    DancehallParams p;
    p.numProcessors = procs;
    p.numBanks = procs;
    DancehallSystem sys(p);
    Tick latency =
        2 * sys.networkLatency() + p.bankServiceTicks + p.wordTicks;
    DancehallWorkload wl(sys, ref_rate);
    wl.start();
    sys.eventQueue().runUntil(2'000'000);
    wl.stop();
    sys.eventQueue().run();
    return {{"processors", static_cast<double>(procs)},
            {"shared_refs_per_ms", ref_rate},
            {"efficiency", wl.efficiency()},
            {"bank_util", sys.bankUtilization()},
            {"unloaded_latency_ns", static_cast<double>(latency)}};
}

} // namespace

int
main(int argc, char **argv)
{
    Reporter report(argc, argv, "vs_single_bus");

    for (unsigned procs : {4u, 9u, 16u, 25u, 36u, 64u, 100u}) {
        report.point("multi_p" + std::to_string(procs),
                     {"processors", "efficiency", "bus_util", "bus_ops"},
                     [&] { return runSingleBusMulti(procs); });
    }

    for (unsigned procs : {64u, 256u, 1024u}) {
        for (int rate : {25, 100, 300, 600}) {
            report.point("dancehall_p" + std::to_string(procs) + "_r"
                             + std::to_string(rate),
                         {"processors", "shared_refs_per_ms",
                          "efficiency", "bank_util",
                          "unloaded_latency_ns"},
                         [&] { return runDancehall(procs, rate); });
        }
    }

    // Seed indices number every point of this program in order, the
    // 7 multi and 12 dance-hall points included, so each multicube
    // point's stream, and its recorded numbers, stay comparable across
    // BENCH files.
    std::uint64_t index = 19;
    for (unsigned n : {2u, 3u, 4u, 5u, 6u, 8u, 10u}) {
        MixParams mix;
        mix.requestsPerMs = kRate;
        report.point("multicube_n" + std::to_string(n),
                     {"processors", "efficiency", "row_util"}, [&] {
                         Metrics m = mixPoint(index++, n, mix);
                         m["processors"] = static_cast<double>(n) * n;
                         return m;
                     });
    }
    return 0;
}
