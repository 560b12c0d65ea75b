/**
 * @file
 * Self-profiling for the simulator: where does *host* time go, and
 * how parallelizable is the grid really?
 *
 * Three concerns share one subsystem because they share one hook set:
 *
 *  - a scoped wall-clock profiler attributing host nanoseconds to
 *    event kinds (event loop, bus arbitration/delivery, controller
 *    snoops, MLT, memory, checker, fault injector), to individual
 *    components, and to event *domains* (row bus i / column bus j) —
 *    the call tree accumulates into a path trie exported as JSON and
 *    as folded stacks (flamegraph.pl compatible);
 *  - an event-queue profile: heap depth per executed event, same-tick
 *    batch sizes, slab/free-list occupancy, and the schedule-horizon
 *    distribution (how far ahead events are scheduled — the raw
 *    material of any conservative-parallel lookahead argument);
 *  - a coupling analyzer: every bus grant is classified as
 *    intra-domain or cross-domain using the domain context the op was
 *    *enqueued* from, yielding the parallelizable event fraction,
 *    per-domain load imbalance, the minimum observed enqueue-to-
 *    delivery latency (the safe conservative lookahead bound), and an
 *    Amdahl-style projected speedup for k shards under row-stripe and
 *    column-stripe decompositions.
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

#include <array>
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
 * Amdahl-style speedup for @p k shards: 1 / (serial + parallel *
 * imbalance / k), capped at k. Shared by the coupling analyzer's
 * projection (ShardingView::speedupAt) and the parallel engine's
 * realized-vs-projected telemetry (ParallelEngine::Telemetry), so the
 * two always agree on the model.
 */
double amdahlSpeedup(double serial_frac, double parallel_frac,
                     double imbalance, unsigned k);

/**
 * The domain an event belongs to: one row bus, one column bus, or
 * none (workload callbacks, timers, anything not tied to a bus).
 */
struct ProfDomain
{
    enum class Dim : std::uint8_t { None = 0, Row = 1, Col = 2 };

    Dim dim = Dim::None;
    std::uint16_t index = 0;

    bool operator==(const ProfDomain &o) const
    {
        return dim == o.dim && index == o.index;
    }
    bool operator!=(const ProfDomain &o) const { return !(*this == o); }
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

    /**
     * Swap this thread's active profiler for @p p (may be null) and
     * return the previous one, touching no wall-clock bookkeeping on
     * either side — unlike activate()/deactivate(), which stamp the
     * activation span. The parallel engine uses this to install a
     * lane's shard profiler around lane execution and restore the
     * enclosing profiler afterwards without corrupting its wallNs().
     */
    static SimProfiler *
    exchangeActive(SimProfiler *p)
    {
        SimProfiler *prev = tlActive;
        tlActive = p;
        return prev;
    }

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
    void pop(std::uint32_t prev_node, ProfDomain prev_domain,
             std::uint64_t ns);
    /** @} */

    /** Domain context of the innermost enclosing scope that declared
     *  one (None outside any bus work). Read by Bus::enqueue to stamp
     *  ops with their *origin* domain. */
    ProfDomain currentDomain() const { return curDomain; }

    /** @{ Event-queue feed (EventQueue hooks). */
    void onSchedule(Tick horizon) { horizonHist.sample(double(horizon)); }
    void onExecute(Tick when, std::size_t heap_depth,
                   std::size_t slab_slots, std::size_t free_slots);
    /** @} */

    /**
     * Coupling feed: one bus grant. @p bus is the granting bus's
     * domain, @p from the domain context the op was enqueued under,
     * @p total_latency the full enqueue-to-delivery tick count
     * (queue delay + arbitration + transfer until delivery) — the
     * quantity whose minimum is the conservative lookahead bound.
     */
    void onBusGrant(ProfDomain bus, ProfDomain from, Tick total_latency);

    /** Scopes entered so far (diagnostic / test hook). */
    std::uint64_t scopeCount() const { return scopes; }

    /** Events observed via onExecute. */
    std::uint64_t eventCount() const { return events; }

    /** Host nanoseconds between activate() and deactivate() (or now,
     *  while still active). */
    std::uint64_t wallNs() const;

    /** One sharding decomposition's parallelism-readiness numbers. */
    struct ShardingView
    {
        double parallelFracEvents = 0.0; //!< intra-domain bus-op share
        double parallelFracNs = 0.0;     //!< intra-domain host-ns share
        double serialFracNs = 0.0;       //!< cross-domain host-ns share
        double imbalance = 1.0;          //!< max/mean per-domain ns
        Tick lookaheadTicks = 0;         //!< min cross-feed latency

        /** Amdahl-style projection for @p k shards (>= 1), capped
         *  at k. */
        double speedupAt(unsigned k) const;
    };

    struct Summary
    {
        std::uint64_t wallNs = 0;
        std::uint64_t events = 0;
        std::uint64_t scopes = 0;
        std::uint64_t rowOps = 0;   //!< grants on row buses
        std::uint64_t colOps = 0;   //!< grants on column buses
        std::uint64_t otherOps = 0; //!< grants on undimensioned buses
        std::uint64_t crossOps = 0; //!< grants enqueued cross-domain
        ShardingView row;           //!< row-stripe decomposition
        ShardingView col;           //!< column-stripe decomposition
    };

    Summary summary() const;

    /** Build the full profile as a JSON tree (schema v1; see
     *  docs/OBSERVABILITY.md). */
    Json toJson() const;

    /** Write toJson() to @p os (pretty-printed). */
    void exportJson(std::ostream &os) const;

    /** Write the call trie as folded stacks: one
     *  "frame;frame;frame <self_ns>" line per trie path with nonzero
     *  self time — flamegraph.pl's input format. */
    void exportFolded(std::ostream &os) const;

    /**
     * Fold another profiler's accumulated data into this one: trie
     * nodes are matched (or created) path-by-path and their ns/count
     * charged here, the event-queue and coupling histograms merge
     * bucket-exact, and the min-latency lookahead bounds take the
     * elementwise minimum. Wall-clock bookkeeping (activation time,
     * accumulated wall ns) is deliberately untouched — it describes
     * *this* profiler's activation span, not the shard's.
     *
     * This is how the parallel engine gives each lane a thread-local
     * shard profiler and still exports one coherent profile: shards
     * are absorbed on the coordinator in lane order at every window
     * boundary, then reset. @p o must not be mid-scope (its scope
     * stack unwound), which is guaranteed at a window barrier.
     */
    void absorb(const SimProfiler &o);

    /**
     * Drop all accumulated data (trie, histograms, coupling state) so
     * the profiler can be reused as a fresh shard after absorb().
     * Must not be called mid-scope. Wall-clock bookkeeping is reset
     * too; activation state is untouched.
     */
    void reset();

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
    ProfDomain curDomain;

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

    // Coupling analyzer. Per-domain grant counts grow on demand.
    std::vector<std::uint64_t> rowOps;
    std::vector<std::uint64_t> colOps;
    std::uint64_t otherOps = 0;
    /** Min observed enqueue-to-delivery ticks per bus dimension
     *  (index 0 row, 1 col); 0 count means none observed. */
    std::array<Tick, 2> minOpLatency{};
    std::array<std::uint64_t, 2> opLatencyCount{};
    std::array<Histogram, 2> opLatencyHist;
    /** Cross-domain grants by (from dim, to dim), dims in {row, col}:
     *  [0]=row->col [1]=col->row [2]=same-dim different-index. */
    std::array<std::uint64_t, 3> crossCount{};
    std::array<Tick, 3> crossMinLatency{};
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
        prevDomain = p->currentDomain();
        prevNode = p->push(kind, comp, domain);
        t0 = SimProfiler::nowNs();
    }

    ~ProfScope()
    {
        if (prof)
            prof->pop(prevNode, prevDomain, SimProfiler::nowNs() - t0);
    }

    ProfScope(const ProfScope &) = delete;
    ProfScope &operator=(const ProfScope &) = delete;

  private:
    SimProfiler *prof;
    std::uint32_t prevNode = 0;
    ProfDomain prevDomain;
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
 * Print the human-readable parallelism-readiness report from a parsed
 * profile JSON (the exact file exportJson writes — tools/prof_report
 * round-trips through this, so "parses its own output" holds by
 * construction). @return false if @p profile lacks the v1 schema.
 */
bool profReport(const Json &profile, std::ostream &os);

} // namespace mcube

#endif // MCUBE_SIM_PROFILER_HH
