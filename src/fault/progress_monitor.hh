/**
 * @file
 * Global progress (deadlock/livelock) monitor for a MulticubeSystem.
 *
 * Periodically samples the system and declares a stall when some
 * controller has an outstanding transaction but the global completion
 * count has not advanced for a configurable number of consecutive
 * checks. Two stall shapes are distinguished in the report:
 *
 *  - deadlock: bus traffic has also stopped (nothing in flight at
 *    all — an op was lost and no recovery path fired);
 *  - livelock: bus ops keep flowing but no transaction ever finishes
 *    (e.g. a request circling between a bouncing memory module and a
 *    reissuing row controller).
 *
 * Instead of letting a test hang, the monitor captures every
 * controller's pendingInfo() plus the MLT and memory valid-bit state
 * (MulticubeSystem::dumpPendingState) into a report and invokes an
 * optional callback, so stuck runs fail with a diagnosis.
 *
 * The monitor is a periodic observer of the event queue
 * (EventQueue::observe), not a timer event: it checks for the whole
 * run under either engine, keeps checking while runUntil() crosses an
 * empty queue (so a deadlock that leaves no events is still caught),
 * and never keeps drain() from terminating.
 */

#ifndef MCUBE_FAULT_PROGRESS_MONITOR_HH
#define MCUBE_FAULT_PROGRESS_MONITOR_HH

#include <cstdint>
#include <functional>
#include <string>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace mcube
{

class MulticubeSystem;

/** Configuration of a ProgressMonitor. */
struct ProgressMonitorParams
{
    /** Sampling period. Must comfortably exceed the worst-case
     *  transaction latency (including watchdog backoff rounds) or
     *  slow-but-live transactions will be miscalled as stalls. */
    Tick checkIntervalTicks = 250'000;
    /** Consecutive no-progress checks before declaring a stall. */
    unsigned stallChecks = 4;
    /**
     * Invoked on every check that finds the system healthy: either a
     * transaction completed since the last check, or nothing is
     * outstanding at all (idle/draining). A supervised worker wires
     * this to its heartbeat pipe (run::Heartbeat::beat), so a
     * livelocked run — busy but completing nothing — goes silent and
     * the supervisor can tell it from a merely slow one. Pure
     * observation: must not touch simulation state or RNG streams.
     */
    std::function<void()> onProgress{};
};

/** Watches a system for quiescence-with-outstanding-work. */
class ProgressMonitor
{
  public:
    using StallCb = std::function<void(const std::string &)>;

    ProgressMonitor(MulticubeSystem &sys,
                    const ProgressMonitorParams &params = {},
                    StallCb on_stall = {});

    ProgressMonitor(const ProgressMonitor &) = delete;
    ProgressMonitor &operator=(const ProgressMonitor &) = delete;

    /** Begin (or resume) periodic checking. */
    void start();

    /** Stop checking. */
    void stop() { observer.reset(); }

    /** True once a stall has been declared. */
    bool stalled() const { return _stalled; }

    /** Diagnosis captured when the stall was declared. */
    const std::string &report() const { return _report; }

    /** Checks performed so far. */
    std::uint64_t checksRun() const { return _checks; }

  private:
    void check();

    /** Transactions completed across all controllers. */
    std::uint64_t totalCompletions() const;

    /** True if any controller has an outstanding transaction. */
    bool anyBusy() const;

    MulticubeSystem &sys;
    ProgressMonitorParams params;
    StallCb onStall;

    EventQueue::ObserverHandle observer;
    bool _stalled = false;
    unsigned noProgress = 0;
    std::uint64_t lastCompletions = 0;
    std::uint64_t lastBusOps = 0;
    std::uint64_t _checks = 0;
    std::string _report;
};

} // namespace mcube

#endif // MCUBE_FAULT_PROGRESS_MONITOR_HH
