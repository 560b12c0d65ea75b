/**
 * @file
 * Global coherence invariant checker.
 *
 * The checker taps every bus in a MulticubeSystem (attached after all
 * functional agents, so it observes post-transition state) and keeps a
 * golden per-line value history fed by every controller's commit hook.
 * After each bus operation it verifies:
 *
 *  I1  at most one cache holds the line in Modified mode;
 *  I2  a Modified holder implies the memory copy is invalid;
 *  I3  a Modified holder's token equals the golden (latest) token;
 *  I4  a valid memory line's token equals the golden token;
 *
 * and, on a sampling interval (full sweeps are O(system)):
 *
 *  I5  the modified line tables of a column are identical;
 *  I6  every MLT entry has a Modified holder in its column;
 *  I7  no line has MLT entries in two different columns.
 *
 * The paper explicitly does not guarantee complete serializability
 * (Section 4): a writer commits as soon as it owns the line, while
 * the invalidation broadcast is still purging shared copies row by
 * row, so reads may legally observe the previous value until the
 * broadcast settles. The checker therefore tracks, per line, when
 * each broadcast's row purges finish; tokenWasGoldenDuring() accepts
 * a value while it is golden and keeps accepting it until the purge
 * wave that overwrote it has fully settled.
 */

#ifndef MCUBE_CORE_CHECKER_HH
#define MCUBE_CORE_CHECKER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bus/bus.hh"
#include "core/system.hh"
#include "sim/flat_map.hh"
#include "sim/types.hh"

namespace mcube
{

/**
 * One recorded invariant violation, machine-readable. The fuzz
 * campaign's shrinker classifies failures by invariant and checks a
 * shrunk repro still fails *the same way*; strings are not a stable
 * enough key for that.
 */
struct ViolationRecord
{
    Tick when = 0;
    /** Invariant tag: "I1".."I7" (see file comment). */
    std::string invariant;
    Addr addr = 0;
    /** Full human-readable description (same text as report()). */
    std::string detail;
};

/** Invariant checker attached to a MulticubeSystem. */
class CoherenceChecker
{
  public:
    /**
     * @param sys System to watch. The checker installs itself on all
     * buses and takes over every controller's onCommitWrite hook.
     * @param full_check_interval Run the O(system) sweeps (I5-I7)
     * every this many bus operations (0 disables them).
     */
    explicit CoherenceChecker(MulticubeSystem &sys,
                              std::uint64_t full_check_interval = 64);

    CoherenceChecker(const CoherenceChecker &) = delete;
    CoherenceChecker &operator=(const CoherenceChecker &) = delete;

    /** Number of invariant violations recorded so far. */
    std::uint64_t violations() const { return _violations; }

    /** Human-readable description of the first few violations. */
    const std::vector<std::string> &report() const { return _report; }

    /** Structured form of the first few violations (same cap as
     *  report()). */
    const std::vector<ViolationRecord> &violationRecords() const
    {
        return _records;
    }

    /**
     * Human-readable commit history of @p addr overlapping [from, to]
     * (plus the last commit before the window, which is the value a
     * read entering the window could still observe). Used by the
     * random tester's failure messages so an oracle miss shows what
     * the line actually held.
     */
    std::string historyWindow(Addr addr, Tick from, Tick to) const;

    /** Latest committed token for @p addr (0 if never written). */
    std::uint64_t goldenToken(Addr addr) const;

    /**
     * True if @p token was the golden value of @p addr at any instant
     * in [from, to]; used to validate read results under the paper's
     * relaxed ordering.
     */
    bool tokenWasGoldenDuring(Addr addr, std::uint64_t token, Tick from,
                              Tick to) const;

    /** Bus operations observed. */
    std::uint64_t opsObserved() const { return _ops; }

    /**
     * @{
     * Fail-stop reconfiguration cooperation (docs/ROBUSTNESS.md).
     * Installed/driven by the ReconfigurationManager so the invariants
     * stay meaningful within each degradation epoch and across the
     * transition.
     */

    /**
     * A dirty line owned by a killed node was lost; memory was
     * revalidated with its stale copy holding @p stale_token. Appends
     * a settled golden commit so I3/I4 compare against the value that
     * is now architecturally visible, and forgets any purge wave still
     * accounted against the line (its row ops died with the fault).
     */
    void onLineLost(Addr addr, std::uint64_t stale_token);

    /**
     * An epoch cutover ran: drop lenient-sweep suspects accumulated
     * against the pre-transition topology (their repair window ended
     * with the component, not with a repair op).
     */
    void onEpochTransition();

    /**
     * Predicate for addresses homed on a fail-stopped memory module.
     * All invariants are suppressed for quarantined lines: their
     * memory-side state is frozen mid-protocol and unreconstructable
     * by design.
     */
    void setQuarantined(std::function<bool(Addr)> fn)
    {
        quarantined = std::move(fn);
    }

    /**
     * A fail-stop kill executed: lines can legitimately sit in an
     * owner-less tabled state until the cutover and the (bounded)
     * phantom repairs settle, far longer than suspectWindowTicks.
     * While at least one window is open, lenient-sweep I6/I7 offences
     * keep aging but are not reported; per-op checks (I1-I4) and
     * strict sweeps stay fully armed. Windows nest per kill; the
     * manager closes each one a fixed lag after its cutover.
     */
    void beginDegradedWindow() { ++degradedDepth; }
    void endDegradedWindow()
    {
        if (degradedDepth > 0)
            --degradedDepth;
    }

    /** @} */

    /**
     * Run the full sweep (I5-I7) immediately.
     *
     * @param strict Report I6/I7 offences right away. The periodic
     * sweeps pass false: an unclaimed reply's column-wide table
     * insert is undone by a bus-ordered WRITEBACK (REMOVE), and a
     * sweep landing inside that window sees a phantom entry that is
     * already being repaired. Lenient sweeps only report an I6/I7
     * offence seen in several consecutive sweeps — a real phantom is
     * permanent, so it is still caught. Call sites that run after the
     * system drains (no in-flight repairs) should stay strict.
     */
    void fullSweep(bool strict = true);

  private:
    struct Tap : BusAgent
    {
        CoherenceChecker *checker = nullptr;
        bool isRow = false;
        void
        snoop(const BusOp &op, bool) override
        {
            EventQueue &eq = checker->sys.eventQueue();
            if (eq.parallelActive()) {
                // Checker state is global, so the observation crosses
                // from the bus's lane to the serial lane, where
                // afterOp replays in canonical cross-lane order (taps
                // attach after every functional agent, so within one
                // delivery the controllers' commit-hook deferrals
                // sort first). The invariant checks themselves do NOT
                // run there: they read live cache/memory state, which
                // by the serial phase is already the end-of-window
                // state and can be ahead of this op's canonical
                // position (e.g. a same-tick home-lane write hit
                // whose commit deferral sorts after this check).
                // afterOp therefore only queues the address and the
                // window-end observer checks it once the window's
                // golden history is complete (see flushWindowChecks).
                CoherenceChecker *c = checker;
                bool row = isRow;
                eq.deferToLane(0, [c, op, row] { c->afterOp(op, row); });
            } else {
                checker->afterOp(op, isRow);
            }
        }
    };

    /** One committed value of a line. */
    struct CommitEntry
    {
        Tick when = 0;            //!< commit tick
        std::uint64_t token = 0;
        /** Tick at which the invalidation wave that installed this
         *  value finished purging (== when for non-broadcast
         *  commits; maxTick while the wave is still in flight). */
        Tick settled = 0;
    };

    void afterOp(const BusOp &op, bool is_row);
    void checkLine(Addr addr);
    /**
     * Parallel-engine window-end observer: run the per-op invariant
     * checks (and any due lenient sweep) queued by afterOp during the
     * window. The end-of-window state of a line equals its state
     * after the last op that touched it — a state the sequential
     * checker also verifies — and the golden history is complete, so
     * the checks are exact here where mid-window they would be racy
     * against later same-window commits.
     */
    void flushWindowChecks();
    void fail(const std::string &what);
    void fail(const std::string &invariant, Addr addr,
              const std::string &what);

    MulticubeSystem &sys;
    std::uint64_t fullInterval;
    std::vector<std::unique_ptr<Tap>> taps;

    /** Non-null once a ReconfigurationManager quarantined a column. */
    std::function<bool(Addr)> quarantined;

    FlatMap<Addr, std::vector<CommitEntry>> history;
    /** Row purges still outstanding per line. */
    FlatMap<Addr, unsigned> pendingPurges;
    /**
     * I6/I7 offences seen in lenient sweeps, keyed by message, with
     * the tick each was first observed at. An entry is dropped as soon
     * as one sweep does not reproduce it.
     */
    std::unordered_map<std::string, Tick> sweepSuspects;
    /**
     * How long an offence must persist (continuously, across every
     * lenient sweep in between) before it is reported. Repair windows
     * are bounded in time — a parked reply's undo WRITEBACK arrives
     * within a couple of bus latencies, plus any injected delay — so
     * the budget is expressed in ticks, not sweep counts.
     */
    static constexpr Tick suspectWindowTicks = 10'000;

    /** Open degradation windows (see beginDegradedWindow()). */
    unsigned degradedDepth = 0;

    /**
     * @{
     * Parallel-engine mode (set once at construction when the system
     * runs the window-phased engine): afterOp queues addresses here
     * and flushWindowChecks() verifies them at the window end.
     */
    bool barrierChecks = false;
    std::vector<Addr> windowAddrs;
    bool sweepDue = false;
    /** @} */

    std::uint64_t _ops = 0;
    std::uint64_t _violations = 0;
    std::vector<std::string> _report;
    std::vector<ViolationRecord> _records;

    /** Registration of flushWindowChecks() under the engine; dropped
     *  with the checker. */
    EventQueue::ObserverHandle windowChecks;
};

} // namespace mcube

#endif // MCUBE_CORE_CHECKER_HH
