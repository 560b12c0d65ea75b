#include "core/system.hh"

#include <algorithm>
#include <sstream>
#include <string>

namespace mcube
{

MulticubeSystem::MulticubeSystem(const SystemParams &params)
    : _params(params), grid(params.n, params.homePageShift),
      stats("system")
{
    const unsigned n = params.n;

    if (params.simThreads > 0) {
        // Window width: the minimum bus occupancy (arbitration +
        // header), i.e. the minimum cross-domain hop latency — the
        // conservative lookahead bound (docs/PERFORMANCE.md).
        const Tick window = std::max<Tick>(
            1, params.bus.arbTicks + params.bus.headerTicks);
        par = std::make_unique<ParallelEngine>(eq, n,
                                               params.simThreads,
                                               window);
        eq.setParallel(par.get());
    }

    rowBuses.reserve(n);
    colBuses.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        rowBuses.push_back(std::make_unique<Bus>(
            "row" + std::to_string(i), eq, params.bus));
        colBuses.push_back(std::make_unique<Bus>(
            "col" + std::to_string(i), eq, params.bus));
        if (par) {
            rowBuses.back()->setScheduleLane(par->rowLane(i));
            colBuses.back()->setScheduleLane(par->colLane(i));
        }
    }

    nodes.reserve(grid.numNodes());
    for (NodeId id = 0; id < grid.numNodes(); ++id) {
        ControllerParams cp = params.ctrl;
        cp.seed = params.seed * 2654435761u + id;
        auto c = std::make_unique<SnoopController>(
            "node" + std::to_string(grid.rowOf(id)) + "_"
                + std::to_string(grid.colOf(id)),
            eq, grid, id, cp);
        c->connect(*rowBuses[grid.rowOf(id)], *colBuses[grid.colOf(id)]);
        // A node's home lane is its row bus's lane: completion
        // callbacks and workload self-scheduling run there instead of
        // serializing on lane 0 (docs/PERFORMANCE.md, "Serial-lane
        // pressure").
        if (par)
            c->setHomeLane(par->rowLane(grid.rowOf(id)));
        nodes.push_back(std::move(c));
    }

    memories.reserve(n);
    for (unsigned c = 0; c < n; ++c) {
        auto m = std::make_unique<MemoryModule>(
            "mem" + std::to_string(c), eq, grid, c, params.mem);
        m->connect(*colBuses[c]);
        memories.push_back(std::move(m));
    }

    eq.regStats(stats);
    for (auto &b : rowBuses)
        b->regStats(stats);
    for (auto &b : colBuses)
        b->regStats(stats);
    for (auto &nd : nodes)
        nd->regStats(stats);
    for (auto &m : memories)
        m->regStats(stats);
}

bool
MulticubeSystem::drain(Tick max_ticks)
{
    Tick deadline = eq.now() + max_ticks;
    while (eq.now() < deadline) {
        bool idle = true;
        for (auto &b : rowBuses)
            idle = idle && b->pendingOps() == 0;
        for (auto &b : colBuses)
            idle = idle && b->pendingOps() == 0;
        if (idle && eq.empty())
            return true;
        if (eq.empty())
            return true;  // only time advanced past pending? cannot be
        eq.run(1);
        if (eq.now() >= deadline)
            break;
    }
    return false;
}

std::uint64_t
MulticubeSystem::totalBusOps() const
{
    std::uint64_t total = 0;
    for (const auto &b : rowBuses)
        total += b->opsDelivered();
    for (const auto &b : colBuses)
        total += b->opsDelivered();
    return total;
}

std::string
MulticubeSystem::dumpPendingState() const
{
    std::ostringstream oss;
    oss << "---- pending state at tick " << eq.now() << " ----\n";

    std::vector<Addr> addrs;
    unsigned busy = 0;
    for (const auto &nd : nodes) {
        if (!nd->busy())
            continue;
        ++busy;
        oss << "  " << nd->pendingInfo() << "\n";
        addrs.push_back(nd->pendingAddr());
    }
    if (busy == 0)
        oss << "  (no controller has an outstanding transaction)\n";

    for (Addr a : addrs) {
        unsigned home = grid.homeColumn(a);
        oss << "  mem" << home << ": addr " << a << " valid="
            << (memories[home]->lineValid(a) ? "yes" : "no") << "\n";
    }

    for (unsigned c = 0; c < grid.n(); ++c) {
        const auto &t = nodes[grid.nodeAt(0, c)]->table();
        oss << "  col" << c << " MLT " << t.size() << "/"
            << t.capacity() << ":";
        unsigned shown = 0;
        t.forEach([&](Addr a) {
            if (shown++ < 16)
                oss << " " << a;
        });
        if (shown > 16)
            oss << " (+" << shown - 16 << " more)";
        oss << "\n";
    }

    for (unsigned i = 0; i < grid.n(); ++i) {
        oss << "  row" << i << " queue=" << rowBuses[i]->pendingOps()
            << ", col" << i << " queue=" << colBuses[i]->pendingOps()
            << "\n";
    }
    return oss.str();
}

unsigned
MulticubeSystem::outstandingTransactions() const
{
    unsigned busy = 0;
    for (const auto &nd : nodes)
        if (nd->busy())
            ++busy;
    return busy;
}

double
MulticubeSystem::meanBusUtilization(unsigned dim) const
{
    const auto &buses = dim == 0 ? rowBuses : colBuses;
    double sum = 0.0;
    for (const auto &b : buses)
        sum += b->utilization();
    return buses.empty() ? 0.0 : sum / static_cast<double>(buses.size());
}

} // namespace mcube
