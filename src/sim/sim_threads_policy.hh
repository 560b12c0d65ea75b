/**
 * @file
 * Shared policy for when a requested parallel single-simulation
 * engine (`--sim-threads`, docs/PERFORMANCE.md) must fall back to the
 * sequential engine.
 *
 * Every observer composes with the parallel engine: the metrics
 * sampler and progress monitor run as window-end observers
 * (EventQueue::observe), and a run with the profiler or tracer active
 * executes its lanes on the observing thread. So `--metrics-out`,
 * `--profile-out` and `--trace-out` deliberately do NOT appear here.
 * Only fault injection (`--fault-drop`, `--fault-plan`) forces the
 * sequential engine: injectors draw from one RNG on bus paths across
 * lanes, and the recovery machinery (reconfiguration epochs)
 * serializes on global state.
 *
 * The decision lives in the library, not in the CLI, so tests can
 * assert both the forcing behaviour and the exact warning text that
 * names the offending flag.
 */

#ifndef MCUBE_SIM_SIM_THREADS_POLICY_HH
#define MCUBE_SIM_SIM_THREADS_POLICY_HH

#include <string>
#include <vector>

namespace mcube
{

/** What the caller asked for, as relevant to the policy. */
struct SimThreadsRequest
{
    unsigned simThreads = 0;  //!< requested worker count
    bool faultDrop = false;   //!< --fault-drop > 0
    bool faultPlan = false;   //!< --fault-plan given
};

/** The resolved worker count plus one warning line per forcing flag. */
struct SimThreadsDecision
{
    unsigned simThreads = 0;  //!< value to actually use
    /** One line per incompatible flag, each naming that flag and
     *  ending in "forcing --sim-threads=0"; empty when the request
     *  stands. Callers print these to stderr verbatim. */
    std::vector<std::string> warnings;

    bool forced() const { return !warnings.empty(); }
};

/** Apply the policy above to @p req. */
SimThreadsDecision resolveSimThreads(const SimThreadsRequest &req);

} // namespace mcube

#endif // MCUBE_SIM_SIM_THREADS_POLICY_HH
