/**
 * @file
 * Experiment E3 — Figure 4: "Effect of Block Size on Performance with
 * 1K Processors". Block sizes 4..64 bus words under three couplings
 * between block size and bus request rate:
 *
 *   fixed    the vertical dashed line: doubling the block does not
 *            change the request rate (bigger blocks only cost);
 *   halving  the sloping dashed line: doubling the block halves the
 *            request rate (bigger blocks only help);
 *   sqrt     a "more reasonable relationship" between the extremes,
 *            for which an interior block size is optimal (the paper
 *            argues 16 or 32 words).
 *
 * The simulation cross-check varies the bus blockWords with the same
 * couplings on a 64-processor machine.
 */

#include <cmath>
#include <string>

#include "bench_util.hh"

using namespace mcube;
using namespace mcube::bench;

namespace
{

double
coupledRate(int coupling, unsigned block)
{
    // Rates are normalised so block = 16 always runs at 25 req/ms.
    switch (coupling) {
      case 0:  // fixed
        return 25.0;
      case 1:  // halving
        return 25.0 * 16.0 / block;
      default: // sqrt
        return 25.0 * 4.0 / std::sqrt(static_cast<double>(block));
    }
}

std::string
label(const char *kind, int coupling, unsigned block)
{
    return std::string(kind) + "_c" + std::to_string(coupling) + "_b"
         + std::to_string(block);
}

} // namespace

int
main(int argc, char **argv)
{
    Reporter report(argc, argv, "fig4_blocksize");

    for (int coupling : {0, 1, 2}) {
        for (unsigned block : {4u, 8u, 16u, 32u, 64u}) {
            MvaParams p;
            p.blockWords = block;
            const double rate = coupledRate(coupling, block);
            report.point(label("mva", coupling, block),
                         {"efficiency", "req_per_ms", "resp_ns"}, [&] {
                             Metrics m = toMetrics(runMva(32, rate, &p));
                             m["req_per_ms"] = rate;
                             return m;
                         });
        }
    }

    std::uint64_t index = 0;
    for (int coupling : {0, 1, 2}) {
        for (unsigned block : {4u, 16u, 64u}) {
            SystemParams sp;
            sp.bus.blockWords = block;
            MixParams mix;
            mix.requestsPerMs = coupledRate(coupling, block);
            report.point(label("sim", coupling, block),
                         {"efficiency", "req_per_ms", "mean_latency_ns"},
                         [&] {
                             Metrics m =
                                 mixPoint(index++, 8, mix, 2.0, sp);
                             m["req_per_ms"] = mix.requestsPerMs;
                             return m;
                         });
        }
    }
    return 0;
}
