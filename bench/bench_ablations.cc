/**
 * @file
 * Experiment E9 — ablations of the design choices the paper calls
 * out:
 *
 *   snarfing     Section 3's passive re-acquisition of recently held
 *                lines: measured on a read-heavy workload over a hot
 *                shared set (snarfs convert future misses into hits);
 *   ALLOCATE     the write-whole-line hint (Section 3): dataless
 *                replies cut data transfers for producer patterns;
 *   MLT size     footnote 7: an undersized modified line table forces
 *                overflow writebacks;
 *   signal drop  "Timing Considerations": controllers may discard
 *                requests; the valid-bit bounce recovers, for a
 *                latency (not correctness) cost.
 */

#include <string>

#include "bench_util.hh"
#include "core/checker.hh"

using namespace mcube;
using namespace mcube::bench;

namespace
{

/** Read-heavy hot-set workload where every node repeatedly reads a
 *  small set of lines that one node periodically rewrites. */
Metrics
runSnarfing(bool snarf)
{
    SystemParams p;
    p.n = 4;
    p.ctrl.enableSnarfing = snarf;
    MulticubeSystem sys(p);

    // One writer dirties 8 hot lines; then all nodes read them in
    // waves (invalidation -> re-read), for several rounds.
    for (unsigned round = 0; round < 12; ++round) {
        for (Addr a = 0; a < 8; ++a) {
            sys.node(0).write(a, round * 8 + a + 1,
                              [](const TxnResult &) {});
            sys.drain();
        }
        for (NodeId id = 1; id < sys.numNodes(); ++id) {
            for (Addr a = 0; a < 8; ++a) {
                std::uint64_t tok = 0;
                sys.node(id).read(a, tok, [](const TxnResult &) {});
                sys.drain();
            }
        }
    }
    double misses = 0, snarfs = 0;
    for (NodeId id = 0; id < sys.numNodes(); ++id) {
        misses += static_cast<double>(sys.node(id).misses());
        snarfs += static_cast<double>(sys.node(id).snarfs());
    }
    return {{"misses", misses},
            {"snarfs", snarfs},
            {"bus_ops", static_cast<double>(sys.totalBusOps())}};
}

/** Producer writing whole lines: ALLOCATE vs plain READ-MOD. */
Metrics
runAllocateHint(bool use_allocate)
{
    SystemParams p;
    p.n = 4;
    MulticubeSystem sys(p);
    // A consumer first reads the lines (so they are shared), then
    // the producer overwrites all of them.
    for (Addr a = 0; a < 32; ++a) {
        std::uint64_t tok = 0;
        sys.node(5).read(a, tok, [](const TxnResult &) {});
        sys.drain();
    }
    Tick t0 = sys.eventQueue().now();
    for (Addr a = 0; a < 32; ++a) {
        if (use_allocate)
            sys.node(10).writeAllocate(a, a + 1,
                                       [](const TxnResult &) {});
        else
            sys.node(10).write(a, a + 1, [](const TxnResult &) {});
        sys.drain();
    }
    return {{"elapsed_ns",
             static_cast<double>(sys.eventQueue().now() - t0)},
            {"total_ops", static_cast<double>(sys.totalBusOps())}};
}

/** MLT sizing: overflow writebacks vs table capacity. */
Metrics
runMltSize(unsigned sets)
{
    SystemParams p;
    p.n = 4;
    p.ctrl.mlt = {sets, 2};
    MulticubeSystem sys(p);
    MixParams mix;
    mix.requestsPerMs = 40.0;
    mix.fracReadUnmod = 0.3;
    mix.fracReadMod = 0.1;
    mix.fracWriteUnmod = 0.5;  // write-heavy: many table entries
    mix.fracWriteMod = 0.1;
    MixWorkload wl(sys, mix);
    wl.start();
    sys.run(2'000'000);
    wl.stop();
    sys.drain();
    double overflows = 0;
    for (NodeId id = 0; id < sys.numNodes(); ++id)
        overflows += static_cast<double>(sys.node(id).mltOverflows());
    return {{"mlt_entries", static_cast<double>(sets) * 2},
            {"overflow_wbs", overflows},
            {"bus_ops", static_cast<double>(sys.totalBusOps())},
            {"efficiency", wl.efficiency()}};
}

/** ALLOCATE early write (Section 3's optional refinement): the
 *  processor keeps writing while the acknowledges drain in the
 *  background, pipelining a producer burst. Measured as the time the
 *  processor is blocked across a 32-line burst. */
Metrics
runAllocateEarlyWrite(bool early)
{
    SystemParams p;
    p.n = 4;
    p.ctrl.allocateEarlyWrite = early;
    MulticubeSystem sys(p);
    SnoopController &nd = sys.node(1, 2);
    Tick blocked = 0;
    for (Addr a = 0; a < 32; ++a) {
        Tick t0 = sys.eventQueue().now();
        bool done = false;
        nd.writeAllocate(a, a + 1,
                         [&](const TxnResult &) { done = true; });
        while (!done)
            sys.eventQueue().run(1);
        blocked += sys.eventQueue().now() - t0;
        // With early ack the controller may still be busy; wait
        // for it before the next line (models back-to-back use).
        while (nd.busy())
            sys.eventQueue().run(1);
    }
    sys.drain();
    return {{"proc_blocked_ns", static_cast<double>(blocked)}};
}

/** False sharing (Section 5, footnote 6): two nodes alternately
 *  write "different parts of the same coherency block" — at line
 *  granularity that is the same block, so it ping-pongs between the
 *  caches; with data placed on separate blocks both writers stay
 *  local after the first miss. */
Metrics
runFalseSharing(bool shared_block)
{
    const unsigned rounds = 64;
    SystemParams p;
    p.n = 4;
    MulticubeSystem sys(p);
    SnoopController &a = sys.node(0, 1);
    SnoopController &b = sys.node(2, 3);
    Addr addr_a = 40;
    Addr addr_b = shared_block ? 40 : 41;
    Tick t0 = sys.eventQueue().now();
    for (unsigned r = 0; r < rounds; ++r) {
        a.write(addr_a, r * 2 + 1, [](const TxnResult &) {});
        sys.drain();
        b.write(addr_b, r * 2 + 2, [](const TxnResult &) {});
        sys.drain();
    }
    Tick elapsed = sys.eventQueue().now() - t0;
    return {{"bus_ops", static_cast<double>(sys.totalBusOps())},
            {"ns_per_round", static_cast<double>(elapsed) / rounds}};
}

/** Robustness: drop probability vs reissues and latency. */
Metrics
runSignalDrops(double drop)
{
    SystemParams p;
    p.n = 4;
    p.ctrl.dropSignalProb = drop;
    MulticubeSystem sys(p);
    MixParams mix;
    mix.requestsPerMs = 25.0;
    mix.fracReadUnmod = 0.3;
    mix.fracReadMod = 0.35;  // modified-line traffic exercises
    mix.fracWriteUnmod = 0.1;
    mix.fracWriteMod = 0.25;  // ... the dropped-signal path
    MixWorkload wl(sys, mix);
    wl.start();
    sys.run(2'000'000);
    wl.stop();
    sys.drain();
    double reissues = 0, drops = 0;
    for (NodeId id = 0; id < sys.numNodes(); ++id) {
        reissues += static_cast<double>(sys.node(id).reissues());
        drops += static_cast<double>(sys.node(id).dropsInjected());
    }
    return {{"drops", drops},
            {"reissues", reissues},
            {"mean_latency_ns", wl.meanLatency()},
            {"efficiency", wl.efficiency()}};
}

} // namespace

int
main(int argc, char **argv)
{
    Reporter report(argc, argv, "ablations");
    for (int v : {0, 1}) {
        const std::string on = std::to_string(v);
        report.point("snarfing" + on, {"misses", "snarfs", "bus_ops"},
                     [&] { return runSnarfing(v != 0); });
        report.point("allocate" + on, {"elapsed_ns", "total_ops"},
                     [&] { return runAllocateHint(v != 0); });
        report.point("early_write" + on, {"proc_blocked_ns"},
                     [&] { return runAllocateEarlyWrite(v != 0); });
        report.point("false_sharing" + on, {"bus_ops", "ns_per_round"},
                     [&] { return runFalseSharing(v != 0); });
    }
    for (unsigned sets : {1u, 2u, 4u, 16u, 64u}) {
        report.point("mlt_sets" + std::to_string(sets),
                     {"mlt_entries", "overflow_wbs", "bus_ops",
                      "efficiency"},
                     [&] { return runMltSize(sets); });
    }
    for (int pct : {0, 5, 20, 50}) {
        report.point("drop_pct" + std::to_string(pct),
                     {"drops", "reissues", "mean_latency_ns",
                      "efficiency"},
                     [&] { return runSignalDrops(pct / 100.0); });
    }
    return 0;
}
