/**
 * @file
 * Process-isolated execution of fuzz cases.
 *
 * One misbehaving case must not take down a campaign: the Supervisor
 * forks each case into a worker process with
 *
 *  - an address-space cap (setrlimit(RLIMIT_AS); RLIMIT_RSS is a
 *    no-op on modern Linux) plus a new-handler that converts
 *    allocation failure into a distinct exit code, so OOM triages as
 *    OOM rather than as a crash;
 *  - a wall-clock deadline enforced by the parent (the child may be
 *    wedged in ways no in-process timer survives);
 *  - a heartbeat pipe: the child beats whenever its simulation makes
 *    real progress (fed by ProgressMonitor), so the parent can tell a
 *    *slow* worker (beats keep coming — leave it alone) from a
 *    *livelocked* one (busy but silent — kill and triage Stalled);
 *  - a result pipe carrying the worker's serialized result back, so
 *    a crashing worker costs one item, not the campaign's state.
 *
 * Workers end in _exit() (never by returning through the parent's
 * stack), and the parent fflush()es stdio before forking, so gtest /
 * CLI output is never duplicated through an inherited buffer.
 *
 * Everything here is POSIX; supported() gates the fallback inline
 * path callers keep for exotic platforms.
 */

#ifndef MCUBE_RUN_SUPERVISOR_HH
#define MCUBE_RUN_SUPERVISOR_HH

#include <cstdint>
#include <functional>
#include <string>

#include "run/exit_triage.hh"

namespace mcube::run
{

/** Per-worker resource limits; 0 disables the respective limit. */
struct WorkerLimits
{
    double wallSeconds = 0.0;       //!< hard per-item deadline
    double heartbeatSeconds = 0.0;  //!< max silence before Stalled
    std::uint64_t rssBytes = 0;     //!< address-space cap (RLIMIT_AS)
};

/** Child-side handle for feeding the heartbeat pipe. */
class Heartbeat
{
  public:
    explicit Heartbeat(int fd = -1) : fd(fd) {}

    /** Signal liveness (one byte, non-blocking, errors ignored — a
     *  full pipe already proves the parent saw recent beats). */
    void beat() const;

    bool active() const { return fd >= 0; }

  private:
    int fd;
};

/** Everything the supervisor learned about one finished worker. */
struct WorkerOutcome
{
    Triage triage = Triage::Fatal;
    int exitCode = -1;      //!< valid when the child exited
    int termSignal = 0;     //!< valid when the child died on a signal
    double wallSeconds = 0.0;
    std::uint64_t heartbeats = 0;
    std::string result;     //!< bytes the worker returned (may be
                            //!< partial/empty for abnormal triage)
    std::string error;      //!< supervisor-side note (fork failure...)
};

/** Forks, watches, kills and triages worker processes. */
class Supervisor
{
  public:
    /**
     * The worker body. Runs in the forked child; writes its
     * serialized result into @p resultOut and returns the exit code
     * (see exit_triage.hh for the conventions). Exceptions escaping
     * the body become kFatalExit.
     */
    using ChildFn =
        std::function<int(const Heartbeat &, std::string &resultOut)>;

    explicit Supervisor(WorkerLimits limits = {}) : limits(limits) {}

    /** True when fork-based isolation is available at all. */
    static bool supported();

    /** Run one item in a supervised worker, blocking until triage. */
    WorkerOutcome runOne(const ChildFn &fn) const;

    const WorkerLimits &workerLimits() const { return limits; }

  private:
    WorkerLimits limits;
};

} // namespace mcube::run

#endif // MCUBE_RUN_SUPERVISOR_HH
