/**
 * @file
 * Assembly of a complete Wisconsin Multicube: n row buses, n column
 * buses, n^2 snooping cache controllers and n memory modules (one per
 * column, line-interleaved), all sharing one event queue.
 */

#ifndef MCUBE_CORE_SYSTEM_HH
#define MCUBE_CORE_SYSTEM_HH

#include <memory>
#include <string>
#include <vector>

#include "bus/bus.hh"
#include "core/controller.hh"
#include "mem/memory_module.hh"
#include "sim/event_queue.hh"
#include "sim/parallel_engine.hh"
#include "sim/stats.hh"
#include "topology/grid_map.hh"

namespace mcube
{

/** Configuration of a whole system. */
struct SystemParams
{
    unsigned n = 4;              //!< processors per bus (N = n^2)
    BusParams bus{};             //!< timing shared by rows and columns
    ControllerParams ctrl{};     //!< per-node controller configuration
    MemoryParams mem{};          //!< per-column memory configuration
    std::uint64_t seed = 12345;  //!< base seed; nodes derive their own
    /** Home-column interleave granularity: 0 = by line (default),
     *  p = by 2^p-line pages (Section 3: "by lines or pages"). */
    unsigned homePageShift = 0;
    /**
     * Worker threads for the parallel single-simulation engine
     * (docs/PERFORMANCE.md). 0 (default) selects the classic
     * sequential engine. Any value >= 1 selects the window-phased
     * parallel engine, whose results are bit-identical for every
     * simThreads value (1 included) but follow a different canonical
     * event order than the sequential engine. Observers never change
     * them: periodic observers (EventQueue::observe) run at window
     * ends, and a run with a profiler or tracer active executes on
     * one thread. Fault injection is not supported under it. No
     * command-line tool selects the engine; the benchmark's
     * mix_n64_par workload does (docs/PERFORMANCE.md).
     */
    unsigned simThreads = 0;
};

/** A complete n x n Multicube machine instance. */
class MulticubeSystem
{
  public:
    explicit MulticubeSystem(const SystemParams &params);

    MulticubeSystem(const MulticubeSystem &) = delete;
    MulticubeSystem &operator=(const MulticubeSystem &) = delete;

    EventQueue &eventQueue() { return eq; }
    const GridMap &gridMap() const { return grid; }
    /** Mutable map, for the ReconfigurationManager's unreachable
     *  marking (docs/ROBUSTNESS.md); everything else reads it. */
    GridMap &gridMap() { return grid; }
    unsigned n() const { return grid.n(); }
    unsigned numNodes() const { return grid.numNodes(); }

    /** The configuration this system was built from (repro echoing). */
    const SystemParams &params() const { return _params; }

    SnoopController &node(NodeId id) { return *nodes[id]; }
    SnoopController &node(unsigned row, unsigned col)
    {
        return *nodes[grid.nodeAt(row, col)];
    }
    MemoryModule &memory(unsigned col) { return *memories[col]; }
    Bus &rowBus(unsigned row) { return *rowBuses[row]; }
    Bus &colBus(unsigned col) { return *colBuses[col]; }

    /** Run for @p ticks of simulated time. */
    void run(Tick ticks) { eq.runUntil(eq.now() + ticks); }

    /**
     * Run until every bus is idle and no events remain, or @p max_ticks
     * elapse. @return true if the system drained.
     */
    bool drain(Tick max_ticks = 10'000'000);

    /** Total bus operations delivered across all 2n buses. */
    std::uint64_t totalBusOps() const;

    /**
     * Human-readable snapshot of all in-flight work: every busy
     * controller's pendingInfo(), each column's MLT contents, the
     * memory valid bit for every pending address, and per-bus queue
     * depths. Used by timeout and stall diagnostics (soak tests,
     * ProgressMonitor) so hung runs fail with a diagnosis instead of
     * a bare timeout.
     */
    std::string dumpPendingState() const;

    /** Mean utilisation over all row (dim 0) or column (dim 1) buses. */
    double meanBusUtilization(unsigned dim) const;

    /** Controllers with an outstanding processor transaction (the
     *  in-flight gauge sampled by MetricsSampler). */
    unsigned outstandingTransactions() const;

    /** Root of the system's statistics tree. */
    const StatGroup &statistics() const { return stats; }
    StatGroup &statistics() { return stats; }

    /** The parallel engine, or nullptr when simThreads == 0. */
    ParallelEngine *parallelEngine() { return par.get(); }

  private:
    SystemParams _params;
    EventQueue eq;
    GridMap grid;
    StatGroup stats;
    std::vector<std::unique_ptr<Bus>> rowBuses;
    std::vector<std::unique_ptr<Bus>> colBuses;
    std::vector<std::unique_ptr<SnoopController>> nodes;
    std::vector<std::unique_ptr<MemoryModule>> memories;
    /** Declared last: destroyed first, so pending lane events (which
     *  capture raw bus/controller pointers) die before their
     *  targets, and the worker pool stops before teardown. */
    std::unique_ptr<ParallelEngine> par;
};

} // namespace mcube

#endif // MCUBE_CORE_SYSTEM_HH
