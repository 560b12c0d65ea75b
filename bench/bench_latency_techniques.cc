/**
 * @file
 * Experiment E6 — Section 5 "Techniques for Reducing Bus Latency":
 * requested-word-first, cut-through forwarding of the second hop, and
 * splitting the line into small fixed-size pieces, across block
 * sizes. The MVA reports raw (unloaded) transaction latency and
 * loaded efficiency; the event simulator cross-checks cut-through
 * with its native bus support.
 *
 * Paper expectation: the two forwarding techniques mostly eliminate
 * one full transfer-block latency each; pieces trade extra header
 * occupancy for latency; the win matters most for large blocks.
 */

#include <string>
#include <utility>

#include "bench_util.hh"

using namespace mcube;
using namespace mcube::bench;

int
main(int argc, char **argv)
{
    Reporter report(argc, argv, "latency_techniques");

    // tech: 0 none, 1 requested-word-first, 2 cut-through, 3 both,
    // 4 four-word pieces.
    for (int tech : {0, 1, 2, 3, 4}) {
        for (unsigned block : {8u, 16u, 32u, 64u}) {
            MvaParams p;
            p.blockWords = block;
            if (tech == 4)
                p.pieceWords = 4;
            else
                p.technique = static_cast<LatencyTechnique>(tech);
            report.point("mva_tech" + std::to_string(tech) + "_b"
                             + std::to_string(block),
                         {"raw_latency_ns", "efficiency", "resp_ns"},
                         [&] {
                             MvaModel model(p);
                             Metrics m = toMetrics(model.solve());
                             m["raw_latency_ns"] = model.rawLatency();
                             return m;
                         });
        }
    }

    MixParams mix;
    mix.requestsPerMs = 15.0;
    std::uint64_t index = 0;
    for (int cut : {0, 1}) {
        for (unsigned block : {16u, 64u}) {
            SystemParams sp;
            sp.bus.blockWords = block;
            sp.bus.cutThrough = cut != 0;
            report.point("sim_cut" + std::to_string(cut) + "_b"
                             + std::to_string(block),
                         {"mean_latency_ns", "efficiency"},
                         [&] { return mixPoint(index++, 8, mix, 2.0, sp); });
        }
    }

    // Simulator counterpart of the "small fixed-size pieces"
    // technique: pieces trade wire occupancy for requested-word-first
    // delivery.
    for (auto [piece, block] :
         {std::pair{0u, 64u}, std::pair{4u, 64u}, std::pair{8u, 64u}}) {
        SystemParams sp;
        sp.bus.blockWords = block;
        sp.bus.pieceWords = piece;
        report.point("sim_piece" + std::to_string(piece) + "_b"
                         + std::to_string(block),
                     {"mean_latency_ns", "efficiency", "row_util"},
                     [&] { return mixPoint(index++, 8, mix, 2.0, sp); });
    }
    return 0;
}
