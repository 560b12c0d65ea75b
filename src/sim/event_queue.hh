/**
 * @file
 * A minimal deterministic discrete-event queue.
 *
 * Events are arbitrary callables scheduled at an absolute tick. Events
 * scheduled for the same tick fire in scheduling order (a monotonic
 * sequence number breaks ties), which keeps simulations reproducible.
 * Events live in an EventHeap (sim/event_heap.hh), the same storage
 * every parallel-engine lane uses.
 *
 * Scheduling an event in the past is a caller bug: sequentially it
 * asserts in debug builds and, in release builds, is clamped to now()
 * and counted in the `sched_past_tick` statistic so the condition
 * stays observable. Under the parallel engine (see below) the clamp
 * would silently mask a cross-shard causality violation, so a past
 * tick is a hard error (abort) there, in every build mode.
 *
 * The queue can optionally route through a ParallelEngine
 * (sim/parallel_engine.hh): when a MulticubeSystem is built with
 * simThreads > 0 the queue's schedules are sharded into per-bus-domain
 * lanes and executed window-by-window on a worker pool. Callers keep
 * using the same schedule()/run()/runUntil() surface; bus code uses
 * scheduleToLane() to pin its internal events to its lane, and
 * everything else lands on the serial lane.
 *
 * Code that watches a run without writing simulated state (metrics
 * sampler, progress monitor, the checker's per-window checks)
 * registers a periodic *observer* with observe() instead of
 * scheduling timer events, so observing a run never changes its
 * schedule. Observers are called from the run loop, never as events:
 * sequentially between events, as simulated time passes each
 * deadline; under the engine on the coordinator, at the end of the
 * first window that reaches the deadline. In both engines an empty
 * stretch that runUntil() crosses still passes its deadlines.
 */

#ifndef MCUBE_SIM_EVENT_QUEUE_HH
#define MCUBE_SIM_EVENT_QUEUE_HH

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_heap.hh"
#include "sim/profiler.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace mcube
{

class ParallelEngine;

/**
 * The central event queue driving a simulation.
 *
 * All model components share one queue; the owner calls run() or
 * runUntil() to advance simulated time.
 */
class EventQueue
{
  public:
    EventQueue()
    {
        // `executed` stays off the stat tree deliberately: harness
        // components (progress monitors, samplers) execute events of
        // their own, and stat-tree bit-identity checks must not be
        // sensitive to that. It remains visible via eventsExecuted().
        statsGrp.addCounter("sched_past_tick", statPastTick,
                            "schedules targeting a tick before now() "
                            "(clamped; a caller bug in debug builds)");
    }

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time (context-aware in parallel mode: the
     *  running event's tick on a worker lane). */
    Tick now() const { return par ? parNow() : _now; }

    /**
     * Attach (or detach, with nullptr) a parallel engine. While
     * attached, every schedule is routed to an engine lane — plain
     * schedule()/scheduleIn() to the serial lane, scheduleToLane() to
     * the named lane — and run()/runUntil() drive the engine's
     * window loop. Must only be flipped while the queue is idle.
     */
    void setParallel(ParallelEngine *p) { par = p; }

    /** True when schedules route through a parallel engine. */
    bool parallelActive() const { return par != nullptr; }

    /**
     * Schedule a callable at an absolute tick.
     *
     * @param when Absolute tick; must be >= now(). Sequentially a past
     *             tick asserts in debug builds and release builds
     *             clamp to now() and count the event in
     *             `sched_past_tick`; under the parallel engine a past
     *             tick aborts (it would be a cross-shard causality
     *             violation a clamp would silently mask).
     * @param f Callable to invoke.
     */
    template <typename F>
    void
    schedule(Tick when, F &&f)
    {
        if (par) {
            // Non-bus events (timers, callbacks, workload arrivals)
            // serialize on lane 0; see sim/parallel_engine.hh.
            parScheduleLane(0, when, EventFn(std::forward<F>(f)));
            return;
        }
        if (when < _now) {
            assert(when >= _now && "event scheduled in the past");
            ++statPastTick;
            when = _now;
        }
        if (SimProfiler *prof = SimProfiler::active())
            prof->onSchedule(when - _now);
        events.push(when, std::forward<F>(f));
    }

    /** Schedule a callable @p delay ticks in the future. */
    template <typename F>
    void
    scheduleIn(Tick delay, F &&f)
    {
        schedule(now() + delay, std::forward<F>(f));
    }

    /**
     * Schedule a callable @p delay ticks in the future on engine lane
     * @p lane, from *any* execution context. Sequentially this is
     * exactly scheduleIn(). Under the parallel engine, same-lane and
     * coordinator-context schedules keep their exact tick; when the
     * calling context is a different lane, the target tick is pushed
     * out to at least one window ahead so it can never land in the
     * target lane's past (lanes within a window advance
     * independently). Buses pin their arbitrate/deliver/release
     * events to their lane with it, and nodes their completion
     * callbacks and workload self-scheduling to their home (row)
     * lane.
     */
    template <typename F>
    void
    scheduleToLane(unsigned lane, Tick delay, F &&f)
    {
        if (!par) {
            schedule(_now + delay, std::forward<F>(f));
            return;
        }
        parScheduleToLane(lane, delay, EventFn(std::forward<F>(f)));
    }

    /**
     * True when the calling context runs on a parallel-engine lane
     * other than @p lane. Components pinned to a lane (buses) use this
     * to detect calls arriving from a foreign lane, which must be
     * deferred with deferToLane() instead of touching their state.
     */
    bool foreignLane(unsigned lane) const;

    /**
     * Defer @p fn to run under lane @p lane's context at the next
     * window barrier, in canonical cross-lane order (no-op wrapper
     * around an immediate call when no engine is attached).
     */
    void deferToLane(unsigned lane, EventFn fn);

    /** True if no events remain. */
    bool empty() const;

    /** Number of pending events in the sequential heap (lane-resident
     *  events are counted by the engine's telemetry instead). */
    std::size_t size() const { return events.size(); }

    /** Total number of events ever executed. */
    std::uint64_t eventsExecuted() const;

    /** Schedules that targeted a past tick (clamped in release). */
    std::uint64_t schedPastTick() const { return statPastTick.value(); }

    /** Register the queue's counters under @p parent. */
    void regStats(StatGroup &parent) { parent.addChild(statsGrp); }

    /** Keeps a periodic observer registered; destroying or reset()ing
     *  the handle unregisters it. May outlive the queue. */
    using ObserverHandle = std::shared_ptr<void>;

    /**
     * Register @p fn to be called every @p period ticks (> 0), first
     * at now() + period, for as long as the returned handle lives.
     * @p fn must not write simulated state or schedule events; it
     * sees the state after every event up to its deadline:
     *
     *  - sequentially it runs between events, with now() equal to the
     *    deadline, once per deadline;
     *  - under the parallel engine it runs on the coordinator at the
     *    end of the first window that reaches the deadline, with
     *    now() at the window's start, at most once per window (a
     *    period shorter than the window means "every window").
     *
     * Deadlines inside a stretch with no events still fire as run()
     * or runUntil() crosses it (under the engine, at most once per
     * window width of the stretch), and runUntil(end) returns only
     * after every deadline <= end has fired. Observers with the same
     * due point run in registration order.
     */
    [[nodiscard]] ObserverHandle observe(Tick period,
                                         std::function<void()> fn);

    /**
     * Run until the queue drains or @p limit events have executed.
     * @return number of events executed by this call.
     */
    std::uint64_t run(std::uint64_t limit = UINT64_MAX);

    /**
     * Run until simulated time reaches @p end (events at exactly @p end
     * do fire), the queue drains, or @p limit events execute. Time is
     * left at @p end if the queue drained earlier. In parallel mode a
     * window is the smallest unit of work, so @p limit is honored at
     * window granularity (run() executes at least one whole window).
     * @return number of events executed by this call.
     */
    std::uint64_t runUntil(Tick end, std::uint64_t limit = UINT64_MAX);

  private:
    friend class ParallelEngine;

    struct Observer
    {
        Tick period;
        Tick next;  //!< next deadline
        std::function<void()> fn;
    };

    /** Call every observer whose deadline is <= @p reach once, then
     *  move its deadline past @p reach. */
    void callObservers(Tick reach);
    /** Cross an event-free stretch up to @p reach: starting at each
     *  pending deadline D in turn, set @p clock to D and call the
     *  observers due within [D, D + step) (step 1 sequentially, the
     *  window width under the engine). */
    void observeUntil(Tick reach, Tick step, Tick &clock);

    /** Out-of-line parallel-engine hooks (keep the header decoupled
     *  from parallel_engine.hh). */
    void parScheduleLane(unsigned lane, Tick when, EventFn fn);
    void parScheduleToLane(unsigned lane, Tick delay, EventFn fn);
    Tick parNow() const;
    bool parEmpty() const;
    /** Sequential run loop: execute events with tick <= @p end until
     *  @p limit have run. */
    std::uint64_t runEvents(Tick end, std::uint64_t limit);

    EventHeap events;
    Tick _now = 0;
    ParallelEngine *par = nullptr;

    Counter statExecuted;
    Counter statPastTick;
    StatGroup statsGrp{"eventq"};

    // Last, so the members the event loop touches keep their offsets
    // and cache lines.
    std::vector<std::weak_ptr<Observer>> observers;
    /** Earliest observer deadline (may belong to a dropped observer;
     *  callObservers prunes those). */
    Tick nextDeadline = maxTick;
};

} // namespace mcube

#endif // MCUBE_SIM_EVENT_QUEUE_HH
