/**
 * @file
 * Experiment E2 — Figure 3: "The Effect of Invalidations on
 * Performance with 1K Processors". Efficiency vs request rate with
 * the fraction of write misses to shared (unmodified) data swept over
 * 10..50 percent; other parameters as in Figure 2.
 *
 * Expected shape (paper): curves ordered 10% (top) to 50% (bottom);
 * at light load (>= ~90% efficiency) the invalidation effect is very
 * small, growing as rates push the buses toward saturation.
 */

#include <string>

#include "bench_util.hh"

using namespace mcube;
using namespace mcube::bench;

namespace
{

std::string
label(const char *kind, int inv_pct, int rate)
{
    return std::string(kind) + "_inv" + std::to_string(inv_pct) + "_r"
         + std::to_string(rate);
}

} // namespace

int
main(int argc, char **argv)
{
    Reporter report(argc, argv, "fig3_invalidation");

    for (int inv_pct : {10, 20, 30, 40, 50}) {
        MvaParams p;
        p.fracWriteUnmod = inv_pct / 100.0;
        p.fracReadUnmod = 0.8 - p.fracWriteUnmod;  // P(unmodified) = 0.8
        for (int rate : {1, 5, 10, 15, 20, 25, 30, 40, 50}) {
            report.point(label("mva", inv_pct, rate),
                         {"efficiency", "row_util"},
                         [&] { return toMetrics(runMva(32, rate, &p)); });
        }
    }

    std::uint64_t index = 0;
    for (int inv_pct : {10, 30, 50}) {
        for (int rate : {10, 25, 40}) {
            MixParams mix;
            mix.requestsPerMs = rate;
            mix.fracWriteUnmod = inv_pct / 100.0;
            mix.fracReadUnmod = 0.8 - mix.fracWriteUnmod;
            report.point(label("sim", inv_pct, rate),
                         {"efficiency", "row_util"},
                         [&] { return mixPoint(index++, 8, mix); });
        }
    }
    return 0;
}
