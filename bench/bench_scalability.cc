/**
 * @file
 * Experiment E7 — Section 6 scalability properties of the general
 * n^k Multicube:
 *
 *   - total buses k * n^(k-1); bandwidth per processor k/n, growing
 *     with k "precisely the rate at which the normal path length
 *     grows";
 *   - invalidation broadcast cost ~ (N-1)/(n-1) bus operations;
 *   - the multi (k = 1) and hypercube (n = 2) special cases;
 *   - the MVA's view of how a fixed 1024-processor budget behaves as
 *     the request rate scales.
 */

#include <cmath>
#include <string>
#include <utility>

#include "bench_util.hh"
#include "mva/mva_multik.hh"
#include "topology/multicube.hh"

using namespace mcube;
using namespace mcube::bench;

namespace
{

std::string
label(const char *kind, unsigned n, unsigned k)
{
    return std::string(kind) + "_n" + std::to_string(n) + "_k"
         + std::to_string(k);
}

Metrics
topologyMetrics(unsigned n, unsigned k)
{
    MulticubeTopology t(n, k);
    return {
        {"processors", static_cast<double>(t.numProcessors())},
        {"buses", static_cast<double>(t.numBuses())},
        {"buses_per_proc", static_cast<double>(t.busesPerProcessor())},
        {"bw_per_proc", t.bandwidthPerProcessor()},
        {"inval_ops", static_cast<double>(t.invalidationBusOps())},
        {"max_hops", static_cast<double>(t.maxRequestHops())}};
}

/** General-k MVA at the design-point rate of 25 requests/ms. */
Metrics
multiKMetrics(unsigned n, unsigned k)
{
    MultiKParams p;
    p.n = n;
    p.k = k;
    p.requestsPerMs = 25.0;
    MultiKMvaModel m(p);
    const MultiKResult r = m.solve();
    return {{"processors", std::pow(static_cast<double>(n), k)},
            {"efficiency", r.efficiency},
            {"bus_util", r.busUtilization},
            {"raw_latency_ns", m.rawLatency()},
            {"inval_ops", m.invalidationOps()}};
}

} // namespace

int
main(int argc, char **argv)
{
    Reporter report(argc, argv, "scalability");

    for (unsigned n : {2u, 4u, 8u, 16u, 32u}) {
        for (unsigned k : {1u, 2u, 3u}) {
            report.point(label("topo", n, k),
                         {"processors", "buses", "bw_per_proc",
                          "inval_ops", "max_hops"},
                         [&] { return topologyMetrics(n, k); });
        }
    }

    // Ways of building ~1K processors: n=32,k=2 (the Wisconsin
    // Multicube), n=10,k=3, n=6,k=4, n=4,k=5, n=2,k=10 (hypercube).
    for (auto [n, k] : {std::pair{32u, 2u}, std::pair{10u, 3u},
                        std::pair{6u, 4u}, std::pair{4u, 5u},
                        std::pair{2u, 10u}}) {
        report.point(label("build1k", n, k),
                     {"processors", "buses", "buses_per_proc",
                      "bw_per_proc", "inval_ops"},
                     [n = n, k = k] { return topologyMetrics(n, k); });
    }

    // How the ~4K-processor budget behaves across dimensional builds
    // (Section 6 trade-off).
    for (auto [n, k] : {std::pair{64u, 2u}, std::pair{16u, 3u},
                        std::pair{8u, 4u}, std::pair{4u, 6u},
                        std::pair{2u, 12u}}) {
        report.point(label("multik", n, k),
                     {"processors", "efficiency", "bus_util",
                      "raw_latency_ns", "inval_ops"},
                     [n = n, k = k] { return multiKMetrics(n, k); });
    }

    // Efficiency of the 2-D machine as n scales at the design-point
    // request rate (MVA).
    for (unsigned n : {8u, 16u, 24u, 32u, 40u}) {
        report.point("mva_n" + std::to_string(n),
                     {"processors", "efficiency"}, [&] {
                         Metrics m = toMetrics(runMva(n, 25.0));
                         m["processors"] = static_cast<double>(n) * n;
                         return m;
                     });
    }
    return 0;
}
