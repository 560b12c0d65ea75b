/**
 * @file
 * Exit-status triage for supervised worker processes.
 *
 * A supervised run (one fuzz case) ends in one
 * of a small set of ways, and the supervisor must tell them apart to
 * decide what to do next: record the result, write a crash artifact,
 * or flag a livelocked worker. The classification funnels every
 * source of truth — the child's exit code, the signal that killed it,
 * and what the supervisor itself did to it — through one function so
 * the triage table lives in exactly one place (documented in
 * docs/ROBUSTNESS.md).
 *
 * Child exit-code conventions (kept clear of shell conventions):
 *   0              clean pass
 *   1              run completed but the item failed (e.g. a checker
 *                  violation) — deterministic, worth an artifact
 *   2              input unusable (bad config / artifact)
 *   kOomExit (101) allocation failure: the worker's new-handler fired
 *                  under its RLIMIT_AS cap
 *   kFatalExit(102) uncaught exception escaped the worker body
 */

#ifndef MCUBE_RUN_EXIT_TRIAGE_HH
#define MCUBE_RUN_EXIT_TRIAGE_HH

#include <cstdint>
#include <string>

namespace mcube::run
{

/** What a finished worker means to the campaign. */
enum class Triage : std::uint8_t
{
    Clean,        //!< exit 0: item passed
    ItemFailed,   //!< exit 1: run completed, the item itself failed
    BadInput,     //!< exit 2: the worker rejected its input
    Oom,          //!< new-handler exit or an external SIGKILL (kernel
                  //!< OOM killer): the worker ran out of memory
    Fatal,        //!< any other nonzero exit (uncaught exception, ...)
    CrashSignal,  //!< died on a signal (SIGSEGV, SIGABRT, SIGILL, ...)
    Timeout,      //!< supervisor killed it: wall-clock deadline passed
    Stalled,      //!< supervisor killed it: heartbeat went silent
                  //!< (livelocked, not merely slow)
};

/** Child exit code reserved for "operator new failed under the RSS
 *  cap" (the worker installs a new-handler that exits with this). */
constexpr int kOomExit = 101;

/** Child exit code reserved for "an exception escaped the worker". */
constexpr int kFatalExit = 102;

/** Stable lower-snake name of @p t (journal/artifact vocabulary). */
const char *toString(Triage t);

/** Inverse of toString(). */
bool triageFromString(const std::string &name, Triage &out);

/** True for every kind except Clean. */
bool isFailure(Triage t);

/** Kinds that mean "the worker died without producing a result" —
 *  the campaign should write a crash artifact, not parse output. */
bool isAbnormal(Triage t);

/** What the supervisor itself did to the child before it died. */
enum class SupervisorKill : std::uint8_t
{
    None,       //!< the child ended on its own
    Deadline,   //!< killed because the wall-clock deadline passed
    Heartbeat,  //!< killed because the heartbeat window expired
};

/**
 * Classify a waitpid() status. @p kill records whether (and why) the
 * supervisor killed the child — a SIGKILL we sent means Timeout or
 * Stalled, while a SIGKILL we did not send almost certainly came from
 * the kernel's OOM killer and triages as Oom.
 */
Triage triageWaitStatus(int waitStatus, SupervisorKill kill);

} // namespace mcube::run

#endif // MCUBE_RUN_EXIT_TRIAGE_HH
