/**
 * @file
 * Self-profiling for the simulator: where does *host* time go?
 *
 * Two concerns share one subsystem because they share one hook set:
 *
 *  - a scoped wall-clock profiler attributing host nanoseconds to
 *    event kinds (event loop, bus arbitration/delivery, controller
 *    snoops, MLT, memory, checker, fault injector), to individual
 *    components, and to event *domains* (row bus i / column bus j) —
 *    the call tree accumulates into a path trie exported as JSON, with
 *    its folded stacks (flamegraph.pl compatible) embedded;
 *  - an event-queue profile: heap depth per executed event, same-tick
 *    batch sizes, slab/free-list occupancy, and the schedule-horizon
 *    distribution (how far ahead events are scheduled).
 *
 * The profiler attributes; it does not predict. How much of the grid
 * actually runs in parallel is measured by the parallel engine's
 * telemetry (ParallelEngine::Telemetry, reported by perfbench).
 *
 * Cost contract (same discipline as MCUBE_TRACE / MCUBE_LOG): when no
 * profiler is active every hook is one thread-local pointer load and
 * a branch; no clock is read, nothing allocates. The profiler never
 * touches simulated state or any Random stream, so fixed-seed runs
 * are bit-identical with profiling on or off — enforced by
 * profiler_test and by the benchmark's traced pass (perfbench/).
 *
 * The active profiler is *per thread* (activate() installs into a
 * thread_local slot): a profiled point inside a parallel sweep never
 * observes — or races with — sibling worker threads.
 */

#ifndef MCUBE_SIM_PROFILER_HH
#define MCUBE_SIM_PROFILER_HH

#include <cassert>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "sim/flat_map.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace mcube
{

class Json;

/** What a profiled scope is doing (the "kind" axis of the trie). */
enum class ProfKind : std::uint8_t
{
    Event,       //!< one event-queue callback (the root of most work)
    BusArb,      //!< Bus::tryArbitrate (grant decision + scheduling)
    BusDeliver,  //!< Bus::deliver two-pass broadcast
    CtrlSnoop,   //!< SnoopController port snoop (row or column)
    Mlt,         //!< MLT insert/remove bookkeeping
    Memory,      //!< MemoryModule::snoop (serve/update/bounce)
    Checker,     //!< coherence checker sweep / per-op check
    Fault,       //!< fault injector enqueue hook
    NumKinds,
};

const char *toString(ProfKind kind);

/**
 * The domain an event belongs to: one row bus, one column bus, or
 * none (workload callbacks, timers, anything not tied to a bus).
 */
struct ProfDomain
{
    enum class Dim : std::uint8_t { None = 0, Row = 1, Col = 2 };

    Dim dim = Dim::None;
    std::uint16_t index = 0;
};

/**
 * The profiler. Construct, activate(), run the simulation, then
 * export. At most one profiler is active per *thread*.
 */
class SimProfiler
{
  public:
    SimProfiler();
    ~SimProfiler();

    SimProfiler(const SimProfiler &) = delete;
    SimProfiler &operator=(const SimProfiler &) = delete;

    /** Install as this thread's active profiler (replacing any). */
    void activate();

    /** Detach (hooks become no-ops again). Idempotent. */
    void deactivate();

    /** This thread's active profiler, or nullptr. The only call hot
     *  paths make when profiling is off. */
    static SimProfiler *active() { return tlActive; }

    /** Monotonic host clock, nanoseconds. */
    static std::uint64_t
    nowNs()
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
    }

    /** @{ Scope plumbing, used by ProfScope only. push() descends to
     *  (or creates) the trie child for the frame and returns the
     *  previous position; pop() charges @p ns and restores it. */
    std::uint32_t push(ProfKind kind, std::uint32_t comp, ProfDomain d);
    void pop(std::uint32_t prev_node, std::uint64_t ns);
    /** @} */

    /** @{ Event-queue feed (EventQueue hooks). */
    void onSchedule(Tick horizon) { horizonHist.sample(double(horizon)); }
    void onExecute(Tick when, std::size_t heap_depth,
                   std::size_t slab_slots, std::size_t free_slots);
    /** @} */

    /** Scopes entered so far (diagnostic / test hook). */
    std::uint64_t scopeCount() const { return scopes; }

    /** Events observed via onExecute. */
    std::uint64_t eventCount() const { return events; }

    /** Host nanoseconds between activate() and deactivate() (or now,
     *  while still active). */
    std::uint64_t wallNs() const;

    /** Build the full profile as a JSON tree (schema v2; see
     *  docs/OBSERVABILITY.md). Its `stacks` array holds the call trie
     *  as folded stacks (see profFolded). */
    Json toJson() const;

    /** Write toJson() to @p os (pretty-printed). */
    void exportJson(std::ostream &os) const;

  private:
    struct Node
    {
        std::uint32_t parent = 0;
        ProfKind kind = ProfKind::Event;
        ProfDomain domain;
        std::uint32_t comp = 0;
        std::uint64_t ns = 0;     //!< inclusive
        std::uint64_t count = 0;  //!< scope entries
    };

    /** Self ns per node (inclusive minus children), index-parallel
     *  with `nodes`. */
    std::vector<std::uint64_t> selfNs() const;

    /** Domain each node's time belongs to: its own, or the nearest
     *  ancestor's. */
    ProfDomain inheritedDomain(std::uint32_t node) const;

    /** "row3:deliver"-style frame label. */
    std::string frameLabel(const Node &n) const;

    static thread_local SimProfiler *tlActive;

    std::vector<Node> nodes;           //!< trie; node 0 is the root
    FlatMap<std::uint64_t, std::uint32_t> childIndex;
    std::uint32_t cur = 0;             //!< current trie position

    std::uint64_t scopes = 0;
    std::uint64_t events = 0;
    std::uint64_t t0Ns = 0;
    std::uint64_t totalWallNs = 0;     //!< accumulated across activations

    // Event-queue profile.
    Histogram depthHist;    //!< heap depth per executed event
    Histogram batchHist;    //!< events sharing one tick
    Histogram horizonHist;  //!< schedule distance (ticks ahead of now)
    Histogram occHist;      //!< live slab slots per executed event
    std::uint64_t slabHighWater = 0;
    std::uint64_t freeHighWater = 0;
    Tick batchTick = 0;
    std::uint64_t batchLen = 0;
};

/**
 * RAII profiling scope. Constructing against a null profiler (the
 * common case: profiling off) does nothing at all; otherwise it
 * descends the trie and charges the elapsed host-ns on destruction.
 */
class ProfScope
{
  public:
    ProfScope(SimProfiler *p, ProfKind kind, std::uint32_t comp,
              ProfDomain domain = {})
        : prof(p)
    {
        if (!p)
            return;
        prevNode = p->push(kind, comp, domain);
        t0 = SimProfiler::nowNs();
    }

    ~ProfScope()
    {
        if (prof)
            prof->pop(prevNode, SimProfiler::nowNs() - t0);
    }

    ProfScope(const ProfScope &) = delete;
    ProfScope &operator=(const ProfScope &) = delete;

  private:
    SimProfiler *prof;
    std::uint32_t prevNode = 0;
    std::uint64_t t0 = 0;
};

/** Open a profiling scope for the rest of the enclosing block.
 *  Zero-cost when no profiler is active on this thread. The domain
 *  argument is pasted unparenthesized so `{}` (inherit from the
 *  enclosing scope) works as an argument. */
#define MCUBE_PROF_SCOPE(var, kind, comp, domain)                     \
    ::mcube::ProfScope var(::mcube::SimProfiler::active(), (kind),    \
                           (comp), domain)

/**
 * Print the human-readable host-time report from a parsed profile
 * JSON (the exact file exportJson writes; `mcube_report prof`).
 * @return false if @p profile is not a profile JSON.
 */
bool profReport(const Json &profile, std::ostream &os);

/**
 * Print a parsed profile's embedded `stacks` as folded stacks: one
 * "frame;frame;frame <self_ns>" line per trie path with nonzero self
 * time — flamegraph.pl's input format (`mcube_report folded`).
 * @return false if @p profile is not a profile JSON.
 */
bool profFolded(const Json &profile, std::ostream &os);

} // namespace mcube

#endif // MCUBE_SIM_PROFILER_HH
