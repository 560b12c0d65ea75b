/**
 * @file
 * Experiment E5 — Section 4 synchronisation claims. Compares the
 * three lock disciplines under contention:
 *
 *   tts   software test-and-test-and-set (the single-bus technique
 *         the paper says "translates to multiple broadcast
 *         operations" here);
 *   tset  hardware remote test-and-set with backoff;
 *   sync  the distributed queue lock (SYNC transaction).
 *
 * Each worker acquires the lock, increments a shared counter
 * (load + store inside the critical section) and releases, `iters`
 * times. Reported: total bus operations per lock hand-off and the
 * elapsed time — the paper's claim is that SYNC "collapses bus
 * traffic to a very low level" and (usually) grants FIFO order.
 */

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/system.hh"
#include "proc/processor.hh"
#include "proc/program.hh"

using namespace mcube;
using namespace mcube::bench;
using namespace mcube::prog;

namespace
{

constexpr unsigned kIters = 8;

Metrics
runLockBench(int kind_idx, unsigned workers)
{
    OpCode kind = kind_idx == 0   ? OpCode::LockTTS
                  : kind_idx == 1 ? OpCode::LockTset
                                  : OpCode::LockSync;
    SystemParams p;
    p.n = 4;
    MulticubeSystem sys(p);

    const Addr lock = 100, counter = 101;
    std::vector<std::unique_ptr<Processor>> procs;
    std::vector<std::unique_ptr<ProgramRunner>> runners;
    for (unsigned i = 0; i < workers; ++i) {
        ProcessorParams pp;
        procs.push_back(std::make_unique<Processor>(
            "p" + std::to_string(i), sys.eventQueue(),
            sys.node((i * 5) % 16), pp));
        std::vector<Instr> prog = {
            setCnt(kIters),
            Instr{kind, lock, 0, 0},
            load(counter),
            addAcc(1),
            storeAcc(counter),
            unlock(lock, 1),
            decJnz(1),
            halt(),
        };
        runners.push_back(std::make_unique<ProgramRunner>(
            "r" + std::to_string(i), sys.eventQueue(), *procs.back(),
            std::move(prog), 100 + i));
    }

    for (auto &r : runners)
        r->start();
    sys.eventQueue().runUntil(4'000'000'000ull);
    sys.drain();

    const double busOps = static_cast<double>(sys.totalBusOps());
    const double handoffs = static_cast<double>(workers) * kIters;
    Tick elapsed = 0;
    for (auto &r : runners)
        elapsed = std::max(elapsed, r->finishTick());
    // Recover the final counter value from whichever cache owns it.
    std::uint64_t finalCount = 0;
    for (NodeId id = 0; id < sys.numNodes(); ++id) {
        if (sys.node(id).modeOf(counter) != Mode::Invalid)
            finalCount = std::max(
                finalCount, sys.node(id).dataOf(counter).token);
    }
    return {{"bus_ops_per_handoff", busOps / handoffs},
            {"ns_per_handoff",
             static_cast<double>(elapsed) / handoffs},
            {"total_bus_ops", busOps},
            {"count_ok",
             finalCount
                     == static_cast<std::uint64_t>(workers) * kIters
                 ? 1.0
                 : 0.0}};
}

} // namespace

int
main(int argc, char **argv)
{
    Reporter report(argc, argv, "sync_locks");
    for (int kind : {0, 1, 2}) {
        for (unsigned workers : {2u, 4u, 8u, 16u}) {
            report.point("kind" + std::to_string(kind) + "_w"
                             + std::to_string(workers),
                         {"bus_ops_per_handoff", "ns_per_handoff",
                          "total_bus_ops", "count_ok"},
                         [&] { return runLockBench(kind, workers); });
        }
    }
    return 0;
}
