/**
 * @file
 * Experiment E4 — the Section 3/6 bus-operation cost table. The paper
 * claims, per transaction:
 *
 *   READ, line unmodified        <= 4 bus operations
 *   READ, line modified           = 5 bus operations
 *   READ-MOD, line modified       = 4 bus operations
 *   READ-MOD, line unmodified     = (n+1) row + 3 column operations
 *
 * Each point performs one isolated transaction of the given kind on a
 * quiesced n x n machine and reports the ops actually delivered
 * across all buses, split by dimension.
 */

#include <string>

#include "bench_util.hh"
#include "core/system.hh"

using namespace mcube;
using namespace mcube::bench;

namespace
{

struct OpsCount
{
    std::uint64_t row = 0;
    std::uint64_t col = 0;
};

OpsCount
countOps(MulticubeSystem &sys)
{
    OpsCount c;
    for (unsigned i = 0; i < sys.n(); ++i) {
        c.row += sys.rowBus(i).opsDelivered();
        c.col += sys.colBus(i).opsDelivered();
    }
    return c;
}

/** kind: 0 = READ unmod, 1 = READ mod, 2 = READMOD mod,
 *        3 = READMOD unmod (broadcast), 4 = ALLOCATE unmod. */
Metrics
runTransaction(unsigned n, int kind)
{
    SystemParams p;
    p.n = n;
    MulticubeSystem sys(p);
    // Home column 0; both parties live off the home column and
    // off each other's row/column, so no shortcut paths apply.
    Addr addr = 0;
    SnoopController &owner = sys.node(1, 1);
    SnoopController &actor = sys.node(n - 1, n - 2);

    if (kind == 1 || kind == 2) {
        // Pre-dirty the line at a third party.
        owner.write(addr, 1, [](const TxnResult &) {});
        sys.drain();
    }
    OpsCount before = countOps(sys);
    std::uint64_t tok = 0;
    switch (kind) {
      case 0:
      case 1:
        actor.read(addr, tok, [](const TxnResult &) {});
        break;
      case 2:
      case 3:
        actor.write(addr, 2, [](const TxnResult &) {});
        break;
      case 4:
        actor.writeAllocate(addr, 2, [](const TxnResult &) {});
        break;
    }
    sys.drain();
    OpsCount after = countOps(sys);
    const double row_ops =
        static_cast<double>(after.row - before.row);
    const double col_ops =
        static_cast<double>(after.col - before.col);

    double paper = 0.0;
    switch (kind) {
      case 0: paper = 4; break;           // READ unmodified
      case 1: paper = 5; break;           // READ modified
      case 2: paper = 4; break;           // READ-MOD modified
      case 3:
      case 4: paper = n + 1 + 3; break;   // broadcast: (n+1) row + 3 col
    }
    return {{"row_ops", row_ops},
            {"col_ops", col_ops},
            {"total_ops", row_ops + col_ops},
            {"paper_total", paper}};
}

} // namespace

int
main(int argc, char **argv)
{
    Reporter report(argc, argv, "busops_table");
    for (unsigned n : {4u, 8u, 16u}) {
        for (int kind : {0, 1, 2, 3, 4}) {
            report.point("n" + std::to_string(n) + "_kind"
                             + std::to_string(kind),
                         {"row_ops", "col_ops", "total_ops",
                          "paper_total"},
                         [&] { return runTransaction(n, kind); });
        }
    }
    return 0;
}
