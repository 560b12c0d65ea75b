#include "sim/parallel_engine.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "sim/profiler.hh"
#include "trace/trace_event.hh"

namespace mcube
{

namespace
{

/** Amdahl-style speedup for @p k workers: 1 / (serial + parallel *
 *  imbalance / k), capped at k. */
double
amdahlSpeedup(double serial_frac, double parallel_frac, double imbalance,
              unsigned k)
{
    if (k <= 1)
        return 1.0;
    const double denom =
        serial_frac + parallel_frac * imbalance / static_cast<double>(k);
    if (denom <= 0.0)
        return static_cast<double>(k);
    return std::min(1.0 / denom, static_cast<double>(k));
}

/** Execution context of the calling thread: set while a lane event
 *  (or a merged cross-lane call) is running. */
struct ExecCtx
{
    ParallelEngine *eng = nullptr;
    unsigned lane = 0;
    Tick now = 0;
};

thread_local ExecCtx tlCtx;

std::uint64_t
nsSince(std::chrono::steady_clock::time_point t0)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
}

constexpr Tick kNoTick = static_cast<Tick>(-1);

} // namespace

/** A deferred cross-lane interaction (see mergeOutboxes). */
struct ParallelEngine::Outbox
{
    Tick when;
    std::uint32_t target;
    bool isCall;
    EventFn fn;
};

/** One event-queue shard plus its outbox of deferred cross-lane
 *  interactions. */
struct ParallelEngine::Lane
{
    EventHeap events;
    std::uint64_t executed = 0;
    std::vector<Outbox> outbox;
};

ParallelEngine::ParallelEngine(EventQueue &eq, unsigned n,
                               unsigned workers, Tick window)
    : eq(eq), n_(n),
      workers_(std::max(1u, std::min(workers, n))),
      window_(std::max<Tick>(1, window))
{
    lanes.reserve(numLanes());
    for (unsigned i = 0; i < numLanes(); ++i)
        lanes.push_back(std::make_unique<Lane>());
    workerEvents_.assign(workers_, 0);
    threads.reserve(workers_ - 1);
    for (unsigned w = 1; w < workers_; ++w)
        threads.emplace_back([this, w] { workerMain(w); });
}

ParallelEngine::~ParallelEngine()
{
    {
        std::lock_guard<std::mutex> g(poolMutex);
        quit_ = true;
    }
    poolCv.notify_all();
    for (auto &t : threads)
        t.join();
}

Tick
ParallelEngine::ctxNow() const
{
    return tlCtx.eng == this ? tlCtx.now : now_;
}

unsigned
ParallelEngine::ctxLane() const
{
    return tlCtx.eng == this ? tlCtx.lane : UINT32_MAX;
}

void
ParallelEngine::fatalPastTick(unsigned lane, Tick when, Tick ref) const
{
    std::fprintf(stderr,
                 "mcube: fatal: event scheduled in the past under the "
                 "parallel engine (lane %u, when=%llu < now=%llu); "
                 "this is a cross-shard causality violation\n",
                 lane, static_cast<unsigned long long>(when),
                 static_cast<unsigned long long>(ref));
    std::abort();
}

void
ParallelEngine::scheduleLane(unsigned lane, Tick when, EventFn fn)
{
    const Tick ref = ctxNow();
    if (when < ref)
        fatalPastTick(lane, when, ref);
    // Schedule-horizon feed, mirroring EventQueue::schedule (a
    // profiled run executes every lane on the profiling thread).
    if (SimProfiler *p = SimProfiler::active())
        p->onSchedule(when - ref);
    if (tlCtx.eng == this && tlCtx.lane != lane) {
        // Foreign-lane schedule: defer through the issuing lane's
        // outbox; the destination seq is assigned at merge time so the
        // canonical order is independent of worker placement.
        lanes[tlCtx.lane]->outbox.push_back(
            Outbox{when, lane, false, std::move(fn)});
        return;
    }
    lanes[lane]->events.push(when, std::move(fn));
}

void
ParallelEngine::deferCall(unsigned lane, EventFn fn)
{
    if (tlCtx.eng != this) {
        // Coordinator between phases: workers are idle, direct access
        // is race-free — run inline under the target lane's context.
        ExecCtx saved = tlCtx;
        tlCtx = ExecCtx{this, lane, now_};
        fn();
        tlCtx = saved;
        return;
    }
    lanes[tlCtx.lane]->outbox.push_back(
        Outbox{tlCtx.now, lane, true, std::move(fn)});
}

void
ParallelEngine::runLane(unsigned lane_idx, Tick window_end)
{
    Lane &L = *lanes[lane_idx];
    // Non-null only on the coordinator of a profiled run, which runs
    // every lane inline (see runPhase).
    SimProfiler *prof = SimProfiler::active();
    ExecCtx saved = tlCtx;
    while (!L.events.empty() && L.events.nextWhen() < window_end) {
        L.events.runNext(prof, [this, lane_idx](Tick t) {
            tlCtx = ExecCtx{this, lane_idx, t};
        });
        ++L.executed;
    }
    tlCtx = saved;
}

void
ParallelEngine::workLoop(unsigned worker_id, std::uint64_t epoch_base,
                         unsigned first, unsigned count,
                         Tick window_end)
{
    for (;;) {
        std::uint64_t cur =
            claimWord_.load(std::memory_order_acquire);
        if ((cur >> 32) != (epoch_base >> 32))
            return; // the phase this thread woke up for is over
        const std::uint32_t t = static_cast<std::uint32_t>(cur);
        if (t >= count)
            return;
        if (!claimWord_.compare_exchange_weak(
                cur, cur + 1, std::memory_order_acq_rel,
                std::memory_order_acquire))
            continue;
        Lane &L = *lanes[first + t];
        const std::uint64_t before = L.executed;
        runLane(first + t, window_end);
        workerEvents_[worker_id] += L.executed - before;
        tasksDone_.fetch_add(1, std::memory_order_release);
    }
}

void
ParallelEngine::workerMain(unsigned worker_id)
{
    std::uint64_t seen = 0;
    for (;;) {
        std::uint64_t epoch;
        unsigned first, count;
        Tick end;
        {
            std::unique_lock<std::mutex> l(poolMutex);
            poolCv.wait(l,
                        [&] { return quit_ || phaseEpoch_ != seen; });
            if (quit_)
                return;
            epoch = phaseEpoch_;
            seen = epoch;
            first = phaseFirst_;
            count = phaseCount_;
            end = phaseEnd_;
        }
        workLoop(worker_id, epoch << 32, first, count, end);
    }
}

void
ParallelEngine::runPhase(unsigned first, unsigned count, Tick window_end,
                         std::uint64_t &phase_ns)
{
    const auto t0 = std::chrono::steady_clock::now();
    // Profiler and tracer activation is per thread, so while either is
    // active on the coordinator every lane runs here and records
    // straight into it.
    if (threads.empty() || count <= 1 || SimProfiler::active()
        || TransactionTracer::active()) {
        for (unsigned i = 0; i < count; ++i) {
            Lane &L = *lanes[first + i];
            const std::uint64_t before = L.executed;
            runLane(first + i, window_end);
            workerEvents_[0] += L.executed - before;
        }
    } else {
        std::uint64_t epoch;
        {
            std::lock_guard<std::mutex> g(poolMutex);
            epoch = ++phaseEpoch_;
            phaseFirst_ = first;
            phaseCount_ = count;
            phaseEnd_ = window_end;
            tasksDone_.store(0, std::memory_order_relaxed);
            claimWord_.store(epoch << 32,
                             std::memory_order_release);
        }
        poolCv.notify_all();
        workLoop(0, epoch << 32, first, count, window_end);
        // Wait for every *claimed* lane to finish — not for straggler
        // threads to wake up; late workers fail the epoch check in
        // workLoop and go back to sleep on their own.
        const auto tw = std::chrono::steady_clock::now();
        while (tasksDone_.load(std::memory_order_acquire) != count)
            std::this_thread::yield();
        barrierWaitNs_ += nsSince(tw);
    }
    ++parallelPhases_;
    phase_ns += nsSince(t0);
}

void
ParallelEngine::mergeOutboxes()
{
    // Loop until quiescent: a merged call could in principle append
    // fresh entries to its own lane's outbox.
    for (;;) {
        mergeScratch.clear();
        for (std::uint32_t li = 0; li < lanes.size(); ++li) {
            const auto &ob = lanes[li]->outbox;
            for (std::uint32_t i = 0;
                 i < static_cast<std::uint32_t>(ob.size()); ++i)
                mergeScratch.push_back(MergeRef{ob[i].when, li, i});
        }
        if (mergeScratch.empty())
            return;
        std::sort(mergeScratch.begin(), mergeScratch.end(),
                  [](const MergeRef &a, const MergeRef &b) {
                      if (a.when != b.when)
                          return a.when < b.when;
                      if (a.srcLane != b.srcLane)
                          return a.srcLane < b.srcLane;
                      return a.srcIdx < b.srcIdx;
                  });
        // Remember how much of each outbox this pass consumes; entries
        // appended while applying are handled by the next pass.
        std::vector<std::size_t> consumed(lanes.size());
        for (std::size_t li = 0; li < lanes.size(); ++li)
            consumed[li] = lanes[li]->outbox.size();
        ExecCtx saved = tlCtx;
        for (const MergeRef &m : mergeScratch) {
            Outbox &e = lanes[m.srcLane]->outbox[m.srcIdx];
            tlCtx = ExecCtx{this, e.target, e.when};
            if (e.isCall) {
                e.fn();
            } else {
                lanes[e.target]->events.push(e.when, std::move(e.fn));
            }
            ++crossLaneOps_;
        }
        tlCtx = saved;
        for (std::size_t li = 0; li < lanes.size(); ++li) {
            auto &ob = lanes[li]->outbox;
            ob.erase(ob.begin(),
                     ob.begin()
                         + static_cast<std::ptrdiff_t>(consumed[li]));
        }
    }
}

Tick
ParallelEngine::earliestEvent() const
{
    Tick best = kNoTick;
    for (const auto &l : lanes)
        if (!l->events.empty() && l->events.nextWhen() < best)
            best = l->events.nextWhen();
    return best;
}

void
ParallelEngine::runWindow(Tick window_end)
{
    const auto countRange = [this](unsigned first, unsigned count) {
        std::uint64_t tot = 0;
        for (unsigned i = 0; i < count; ++i)
            tot += lanes[first + i]->executed;
        return tot;
    };

    std::uint64_t mark = countRange(1, n_);
    runPhase(1, n_, window_end, rowPhaseNs_);
    rowEvents_ += countRange(1, n_) - mark;
    const auto tm0 = std::chrono::steady_clock::now();
    mergeOutboxes();
    serialNs_ += nsSince(tm0);

    mark = countRange(1 + n_, n_);
    runPhase(1 + n_, n_, window_end, colPhaseNs_);
    colEvents_ += countRange(1 + n_, n_) - mark;

    // Merges and the serial lane all run single-threaded on the
    // coordinator; they are the engine's serial fraction.
    const auto tm1 = std::chrono::steady_clock::now();
    mergeOutboxes();
    mark = lanes[serialLane]->executed;
    runLane(serialLane, window_end);
    serialEvents_ += lanes[serialLane]->executed - mark;
    mergeOutboxes();

    ++windows_;
    std::uint64_t tot = 0;
    for (const auto &l : lanes)
        tot += l->executed;
    executedTotal_.store(tot, std::memory_order_relaxed);
    // Every deferral of the window has been applied: the state is the
    // quiescent post-window state, one the sequential engine also
    // passes through. Observers (global validators included) run now,
    // with now() still at the window's start.
    eq.callObservers(window_end - 1);
    serialNs_ += nsSince(tm1);
}

void
ParallelEngine::advanceTo(Tick t)
{
    if (t <= now_)
        return;
    eq.observeUntil(t - 1, window_, now_);
    now_ = t;
}

std::uint64_t
ParallelEngine::runUntil(Tick end)
{
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t startTotal =
        executedTotal_.load(std::memory_order_relaxed);
    for (;;) {
        const Tick e = earliestEvent();
        if (e == kNoTick || e > end)
            break;
        advanceTo(e); // skip an empty stretch in one jump
        if (end > now_ && end - now_ >= window_) {
            const Tick we = now_ + window_;
            runWindow(we);
            now_ = we;
        } else {
            // Final (partial) window: events at exactly `end` fire.
            runWindow(end + 1);
            if (now_ < end)
                now_ = end;
        }
    }
    // Deadlines at or before `end` that no window reached still fire.
    eq.observeUntil(end, window_, now_);
    if (now_ < end)
        now_ = end;
    wallNs_ += nsSince(t0);
    return executedTotal_.load(std::memory_order_relaxed) - startTotal;
}

std::uint64_t
ParallelEngine::runOneWindow()
{
    const Tick e = earliestEvent();
    if (e == kNoTick)
        return 0;
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t startTotal =
        executedTotal_.load(std::memory_order_relaxed);
    advanceTo(e);
    const Tick we = now_ + window_;
    runWindow(we);
    now_ = we;
    wallNs_ += nsSince(t0);
    return executedTotal_.load(std::memory_order_relaxed) - startTotal;
}

bool
ParallelEngine::empty() const
{
    for (const auto &l : lanes)
        if (!l->events.empty() || !l->outbox.empty())
            return false;
    return true;
}

double
ParallelEngine::Telemetry::serialFracEvents() const
{
    return events ? double(serialEvents) / double(events) : 0.0;
}

double
ParallelEngine::Telemetry::parallelFracNs() const
{
    const std::uint64_t par_ns = rowPhaseNs + colPhaseNs;
    const std::uint64_t tot = par_ns + serialNs;
    return tot ? double(par_ns) / double(tot) : 0.0;
}

double
ParallelEngine::Telemetry::imbalance() const
{
    // Event counts stand in for per-lane busy time: lanes run
    // homogeneous bus events, so counts track load closely.
    std::uint64_t mx = 0, sum = 0, nlanes = 0;
    for (std::size_t i = 1; i < laneEvents.size(); ++i) {
        mx = std::max(mx, laneEvents[i]);
        sum += laneEvents[i];
        ++nlanes;
    }
    if (!nlanes || !sum)
        return 1.0;
    const double mean = double(sum) / double(nlanes);
    return mean > 0.0 ? double(mx) / mean : 1.0;
}

double
ParallelEngine::Telemetry::projectedSpeedup(unsigned k) const
{
    const double pf = parallelFracNs();
    return amdahlSpeedup(1.0 - pf, pf, imbalance(), k);
}

ParallelEngine::Telemetry
ParallelEngine::telemetry() const
{
    Telemetry t;
    t.workersEffective = workers_;
    t.windows = windows_;
    t.parallelPhases = parallelPhases_;
    t.events = executedTotal_.load(std::memory_order_relaxed);
    t.serialEvents = serialEvents_;
    t.rowEvents = rowEvents_;
    t.colEvents = colEvents_;
    t.crossLaneOps = crossLaneOps_;
    t.wallNs = wallNs_;
    t.serialNs = serialNs_;
    t.rowPhaseNs = rowPhaseNs_;
    t.colPhaseNs = colPhaseNs_;
    t.barrierWaitNs = barrierWaitNs_;
    t.laneEvents.reserve(lanes.size());
    for (const auto &l : lanes)
        t.laneEvents.push_back(l->executed);
    t.workerEvents = workerEvents_;
    return t;
}

} // namespace mcube
