/**
 * @file
 * Experiment E1 — Figure 2: "Efficiency versus Number of Processors
 * per Row". Efficiency vs bus request rate for n = 8, 16, 24, 32
 * processors per row (N = n^2), parameters from the figure caption:
 * 16-word blocks, 50 ns/word, 750 ns memory and snooping-cache
 * latency, P(unmodified) = 0.8, P(invalidation) = 0.2.
 *
 * The primary series comes from the MVA model (as in the paper); the
 * event simulator cross-checks the smaller machines with the same
 * synthetic mix. Rows report the paper's y-axis (efficiency).
 */

#include <string>

#include "bench_util.hh"

using namespace mcube;
using namespace mcube::bench;

namespace
{

std::string
label(const char *kind, unsigned n, int rate)
{
    return std::string(kind) + "_n" + std::to_string(n) + "_r"
         + std::to_string(rate);
}

} // namespace

int
main(int argc, char **argv)
{
    Reporter report(argc, argv, "fig2_efficiency");

    for (unsigned n : {8u, 16u, 24u, 32u}) {
        for (int rate : {1, 5, 10, 15, 20, 25, 30, 40, 50}) {
            report.point(label("mva", n, rate),
                         {"efficiency", "row_util", "col_util",
                          "resp_ns"},
                         [&] { return toMetrics(runMva(n, rate)); });
        }
    }

    // Simulation cross-check on machines small enough to simulate
    // quickly (64 and 256 processors).
    std::uint64_t index = 0;
    for (unsigned n : {8u, 16u}) {
        for (int rate : {5, 15, 25, 40}) {
            MixParams mix;
            mix.requestsPerMs = rate;
            report.point(label("sim", n, rate),
                         {"efficiency", "row_util", "col_util",
                          "transactions"},
                         [&] { return mixPoint(index++, n, mix); });
        }
    }
    return 0;
}
