/**
 * @file
 * Conservative parallel discrete-event engine for a *single*
 * simulation (docs/PERFORMANCE.md, "Parallel single-simulation
 * engine").
 *
 * The Multicube grid is naturally partitionable: each bus plus its
 * attached agents is a mostly-independent event domain, coupled only
 * by cross-bus transactions. The engine shards the event queue into
 * *lanes* — one serial lane (workloads, controller timers, completion
 * callbacks), one lane per row bus and one per column bus — and
 * executes simulated time in fixed *windows* whose width is the
 * minimum bus occupancy (arbitration + header ticks): the minimum
 * cross-domain hop latency, and so the safe conservative lookahead
 * bound (MulticubeSystem's constructor sets it).
 *
 * Within one window [T, T + W):
 *
 *   1. every ROW lane runs its events on the worker pool; a row lane
 *      touches only its bus and the controllers attached to it
 *      (row r owns controllers (r, *)), so row lanes never share
 *      mutable state;
 *   2. barrier; cross-lane traffic produced in 1 is merged;
 *   3. every COLUMN lane runs (column c owns controllers (*, c) and
 *      memory module c);
 *   4. barrier; merge;
 *   5. the SERIAL lane runs exclusively on the coordinator;
 *   6. merge, and the window advances.
 *
 * Cross-lane interactions never touch a foreign lane directly. A
 * Bus::request issued from a foreign lane is recorded in the issuing
 * lane's *outbox* as a deferred call; a schedule() targeting another
 * lane is recorded as a deferred event. At each merge the coordinator
 * applies all outbox entries in the canonical order
 *
 *     (tick, source lane id, source entry order)
 *
 * and destination sequence numbers are assigned at merge time — an
 * order with no dependence on the worker count or on which worker ran
 * which lane. Together with per-lane (tick, seq) execution order this
 * makes the simulated results **bit-identical for any
 * SystemParams::simThreads >= 1**; a ctest (parallel_engine_test) and
 * the tsan CI job enforce it at 1/2/4/8 shards.
 *
 * The parallel engine is a *distinct* canonical schedule from the
 * classic sequential engine (simThreads = 0): phases quantize
 * cross-dimension interleavings, so its stat trees are reproducible
 * across thread counts but are not expected to equal the classic
 * engine's. The classic engine stays the default and is untouched.
 * Nor is the window schedule a legal bus arbitration: a foreign-lane
 * Bus::request is applied at the barrier, so some grants precede
 * their enqueue or overlap the previous op (docs/PERFORMANCE.md).
 *
 * Observers take no part in the schedule. Periodic observers
 * (EventQueue::observe) run on the coordinator after the window's
 * last merge (step 6), with now() still at the window's start, and
 * never move a window boundary. While a SimProfiler or
 * TransactionTracer is active on the coordinator, every phase runs
 * inline on the coordinator, so lane events record straight into the
 * active observer; an observed run therefore gives the same output at
 * any worker count.
 *
 * Scheduling an event in the past is a hard error here (it would be a
 * cross-shard causality violation); see EventQueue::schedule.
 */

#ifndef MCUBE_SIM_PARALLEL_ENGINE_HH
#define MCUBE_SIM_PARALLEL_ENGINE_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace mcube
{

/**
 * The window-phased parallel engine behind EventQueue's parallel
 * mode. Constructed by MulticubeSystem when SystemParams::simThreads
 * is non-zero; model code never talks to it directly — everything
 * goes through EventQueue::schedule / scheduleToLane / deferToLane /
 * observe.
 */
class ParallelEngine
{
  public:
    /** Lane 0 is the serial lane. */
    static constexpr unsigned serialLane = 0;

    /**
     * @param eq Owning queue (routes its schedules here while set).
     * @param n Grid dimension: n row lanes plus n column lanes.
     * @param workers Requested worker count (>= 1); clamped to n, the
     *                widest any phase can go.
     * @param window Lookahead window width in ticks (>= 1); the
     *               minimum cross-domain hop latency.
     */
    ParallelEngine(EventQueue &eq, unsigned n, unsigned workers,
                   Tick window);

    ParallelEngine(const ParallelEngine &) = delete;
    ParallelEngine &operator=(const ParallelEngine &) = delete;

    ~ParallelEngine();

    unsigned rowLane(unsigned r) const { return 1 + r; }
    unsigned colLane(unsigned c) const { return 1 + n_ + c; }
    unsigned numLanes() const { return 1 + 2 * n_; }
    unsigned workers() const { return workers_; }
    Tick window() const { return window_; }

    /** Engine-global simulated time (the last window boundary). */
    Tick now() const { return now_; }

    /** Simulated time of the current execution context: the running
     *  event's tick on a worker, now() otherwise. */
    Tick ctxNow() const;

    /** Lane of the calling thread's execution context, or
     *  UINT32_MAX when no event is being executed (coordinator
     *  between phases — direct access is safe there). */
    unsigned ctxLane() const;

    /**
     * Schedule @p fn at @p when on @p lane. Same-lane schedules go
     * straight into the lane's heap; foreign-lane schedules are
     * deferred through the issuing lane's outbox and merged
     * canonically at the next barrier. @p when earlier than the
     * context's now is a hard error (see file comment).
     */
    void scheduleLane(unsigned lane, Tick when, EventFn fn);

    /**
     * Defer a direct cross-lane call (e.g. a Bus::request from a
     * foreign lane): @p fn runs at the next merge, in canonical
     * order, under @p lane's context at the caller's current tick.
     * Outside any phase it runs inline immediately.
     */
    void deferCall(unsigned lane, EventFn fn);

    /** Run windows until simulated time reaches @p end (events at
     *  exactly @p end do fire). @return events executed. */
    std::uint64_t runUntil(Tick end);

    /** Run a single window (used by drain loops); empty stretches are
     *  skipped in one jump. @return events executed. */
    std::uint64_t runOneWindow();

    /** True if no events remain in any lane. */
    bool empty() const;

    /** Events executed so far, all lanes (safe to read from a monitor
     *  thread). */
    std::uint64_t eventsExecuted() const
    {
        return executedTotal_.load(std::memory_order_relaxed);
    }

    /** Realized execution telemetry (per-shard attribution). */
    struct Telemetry
    {
        unsigned workersEffective = 0;
        std::uint64_t windows = 0;
        std::uint64_t parallelPhases = 0;
        std::uint64_t events = 0;
        std::uint64_t serialEvents = 0;
        std::uint64_t rowEvents = 0;
        std::uint64_t colEvents = 0;
        std::uint64_t crossLaneOps = 0;  //!< merged outbox entries
        std::uint64_t wallNs = 0;        //!< inside runUntil/runOneWindow
        std::uint64_t serialNs = 0;      //!< serial phase + merges
        std::uint64_t rowPhaseNs = 0;
        std::uint64_t colPhaseNs = 0;
        std::uint64_t barrierWaitNs = 0; //!< coordinator wait at joins
        std::vector<std::uint64_t> laneEvents;   //!< per shard
        std::vector<std::uint64_t> workerEvents; //!< per worker

        /** Share of events that ran on the serial lane — the Amdahl
         *  bottleneck the per-node sharding attacks. */
        double serialFracEvents() const;
        /** Host-ns share of the parallel phases. */
        double parallelFracNs() const;
        /** Max/mean per-lane event imbalance (row+col lanes). */
        double imbalance() const;
        /** Amdahl projection from the realized fractions, for
         *  comparison against the measured speedup over a 1-worker
         *  run of the same seeds. */
        double projectedSpeedup(unsigned k) const;
    };

    /** Snapshot the telemetry (call while idle). */
    Telemetry telemetry() const;

  private:
    struct Lane;
    struct Outbox;

    /** Execute @p lane's events with tick < @p window_end. */
    void runLane(unsigned lane_idx, Tick window_end);
    /** Run lanes [first, first+count) in parallel up to
     *  @p window_end. */
    void runPhase(unsigned first, unsigned count, Tick window_end,
                  std::uint64_t &phase_ns);
    /** Claim-and-run lanes of one phase epoch (workers and the
     *  coordinator both execute this). */
    void workLoop(unsigned worker_id, std::uint64_t epoch_base,
                  unsigned first, unsigned count, Tick window_end);
    /** Apply every lane's outbox in canonical order. */
    void mergeOutboxes();
    /** Earliest pending tick across all lanes (Tick max if none). */
    Tick earliestEvent() const;
    /** Jump now_ across the event-free stretch up to @p t, calling
     *  the observers whose deadlines it passes. */
    void advanceTo(Tick t);
    /** One window starting at now_, events with tick < window_end. */
    void runWindow(Tick window_end);
    void workerMain(unsigned worker_id);
    [[noreturn]] void fatalPastTick(unsigned lane, Tick when,
                                    Tick ref) const;

    EventQueue &eq;
    const unsigned n_;
    const unsigned workers_;     //!< effective (<= n, >= 1)
    const Tick window_;
    Tick now_ = 0;

    std::vector<std::unique_ptr<Lane>> lanes;

    // Worker pool (workers_ - 1 threads; the coordinator works too).
    // Lanes are claimed via an epoch-tagged CAS word, so a worker that
    // wakes up late simply fails the epoch check and goes back to
    // sleep — the coordinator only ever waits for *claimed* lanes to
    // finish, never for straggler threads to wake (which keeps an
    // oversubscribed pool, e.g. 4 workers on 2 cores, cheap).
    std::vector<std::thread> threads;
    std::mutex poolMutex;
    std::condition_variable poolCv;
    /** (epoch << 32) | next-lane-to-claim. */
    std::atomic<std::uint64_t> claimWord_{0};
    /** Lanes of the current phase that finished running. */
    std::atomic<std::uint32_t> tasksDone_{0};
    bool quit_ = false;
    // Phase descriptor; written and read under poolMutex.
    std::uint64_t phaseEpoch_ = 0;
    unsigned phaseFirst_ = 0;
    unsigned phaseCount_ = 0;
    Tick phaseEnd_ = 0;

    std::atomic<std::uint64_t> executedTotal_{0};

    // Telemetry (coordinator-owned except workerEvents_, which each
    // worker writes for itself inside phases).
    std::uint64_t windows_ = 0;
    std::uint64_t parallelPhases_ = 0;
    std::uint64_t serialEvents_ = 0;
    std::uint64_t rowEvents_ = 0;
    std::uint64_t colEvents_ = 0;
    std::uint64_t crossLaneOps_ = 0;
    std::uint64_t wallNs_ = 0;
    std::uint64_t serialNs_ = 0;
    std::uint64_t rowPhaseNs_ = 0;
    std::uint64_t colPhaseNs_ = 0;
    std::uint64_t barrierWaitNs_ = 0;
    std::vector<std::uint64_t> workerEvents_;

    /** Scratch for mergeOutboxes (avoids per-merge allocation). */
    struct MergeRef
    {
        Tick when;
        std::uint32_t srcLane;
        std::uint32_t srcIdx;
    };
    std::vector<MergeRef> mergeScratch;
};

} // namespace mcube

#endif // MCUBE_SIM_PARALLEL_ENGINE_HH
