#include "fault/progress_monitor.hh"

#include <sstream>

#include "core/system.hh"
#include "sim/log.hh"

namespace mcube
{

ProgressMonitor::ProgressMonitor(MulticubeSystem &sys,
                                 const ProgressMonitorParams &params,
                                 StallCb on_stall)
    : sys(sys), params(params), onStall(std::move(on_stall))
{
}

void
ProgressMonitor::start()
{
    if (observer)
        return;
    lastCompletions = totalCompletions();
    lastBusOps = sys.totalBusOps();
    noProgress = 0;
    observer = sys.eventQueue().observe(params.checkIntervalTicks,
                                        [this] { check(); });
}

std::uint64_t
ProgressMonitor::totalCompletions() const
{
    std::uint64_t total = 0;
    for (NodeId id = 0; id < sys.numNodes(); ++id)
        total += sys.node(id).missLatency().count();
    return total;
}

bool
ProgressMonitor::anyBusy() const
{
    for (NodeId id = 0; id < sys.numNodes(); ++id)
        if (sys.node(id).busy())
            return true;
    return false;
}

void
ProgressMonitor::check()
{
    ++_checks;

    std::uint64_t completions = totalCompletions();
    std::uint64_t bus_ops = sys.totalBusOps();
    bool busy = anyBusy();

    if (!busy || completions != lastCompletions) {
        noProgress = 0;
        if (params.onProgress)
            params.onProgress();
    } else if (++noProgress >= params.stallChecks && !_stalled) {
        _stalled = true;
        std::ostringstream oss;
        bool traffic = bus_ops != lastBusOps;
        oss << (traffic ? "LIVELOCK" : "DEADLOCK") << " at tick "
            << sys.eventQueue().now() << ": no transaction completed in "
            << noProgress * params.checkIntervalTicks << " ticks ("
            << (traffic ? "bus ops still flowing"
                        : "no bus traffic either")
            << ")\n"
            << sys.dumpPendingState();
        _report = oss.str();
        MCUBE_LOG(LogCat::Check, sys.eventQueue().now(), _report);
        if (onStall)
            onStall(_report);
    }

    lastCompletions = completions;
    lastBusOps = bus_ops;
}

} // namespace mcube
