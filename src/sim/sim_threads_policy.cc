#include "sim/sim_threads_policy.hh"

namespace mcube
{

SimThreadsDecision
resolveSimThreads(const SimThreadsRequest &req)
{
    SimThreadsDecision d;
    d.simThreads = req.simThreads;
    if (req.simThreads == 0)
        return d;

    auto force = [&d](const char *flag, const char *why) {
        d.warnings.push_back(std::string(flag) + " " + why
                             + "; forcing --sim-threads=0");
    };
    if (req.faultDrop) {
        force("--fault-drop",
              "injects faults from a single RNG across bus lanes and "
              "requires the sequential engine");
    }
    if (req.faultPlan) {
        force("--fault-plan",
              "drives fail-stop reconfiguration on global state and "
              "requires the sequential engine");
    }
    if (!d.warnings.empty())
        d.simThreads = 0;
    return d;
}

} // namespace mcube
