#include "sim/event_queue.hh"

#include <algorithm>

#include "sim/parallel_engine.hh"

namespace mcube
{

void
EventQueue::parScheduleLane(unsigned lane, Tick when, EventFn fn)
{
    par->scheduleLane(lane, when, std::move(fn));
}

void
EventQueue::parScheduleToLane(unsigned lane, Tick delay, EventFn fn)
{
    Tick when = par->ctxNow() + delay;
    // Inside a phase, a foreign lane may already have run past `when`
    // within the current window; the earliest tick guaranteed to be in
    // every lane's future is the next window boundary. Same-lane
    // schedules are always monotonic, and coordinator-context
    // schedules (between windows) are at or after the last window end,
    // so both keep their exact tick.
    const unsigned ctx = par->ctxLane();
    if (ctx != UINT32_MAX && ctx != lane) {
        const Tick safe = par->ctxNow() + par->window();
        if (when < safe)
            when = safe;
    }
    par->scheduleLane(lane, when, std::move(fn));
}

Tick
EventQueue::parNow() const
{
    return par->ctxNow();
}

bool
EventQueue::parEmpty() const
{
    return par->empty();
}

bool
EventQueue::empty() const
{
    return events.empty() && (!par || parEmpty());
}

std::uint64_t
EventQueue::eventsExecuted() const
{
    return statExecuted.value() + (par ? par->eventsExecuted() : 0);
}

bool
EventQueue::foreignLane(unsigned lane) const
{
    if (!par)
        return false;
    const unsigned ctx = par->ctxLane();
    return ctx != UINT32_MAX && ctx != lane;
}

void
EventQueue::deferToLane(unsigned lane, EventFn fn)
{
    if (!par) {
        fn();
        return;
    }
    par->deferCall(lane, std::move(fn));
}

EventQueue::ObserverHandle
EventQueue::observe(Tick period, std::function<void()> fn)
{
    assert(period > 0 && "observer period must be positive");
    auto obs = std::make_shared<Observer>(
        Observer{period, now() + period, std::move(fn)});
    observers.push_back(obs);
    nextDeadline = std::min(nextDeadline, obs->next);
    return obs;
}

void
EventQueue::callObservers(Tick reach)
{
    if (nextDeadline > reach)
        return;
    Tick next = maxTick;
    // Index loop: a callback may register another observer.
    for (std::size_t i = 0; i < observers.size();) {
        const std::shared_ptr<Observer> o = observers[i].lock();
        if (!o) {
            observers.erase(observers.begin()
                            + static_cast<std::ptrdiff_t>(i));
            continue;
        }
        if (o->next <= reach) {
            o->fn();
            o->next += ((reach - o->next) / o->period + 1) * o->period;
        }
        next = std::min(next, o->next);
        ++i;
    }
    nextDeadline = next;
}

void
EventQueue::observeUntil(Tick reach, Tick step, Tick &clock)
{
    while (nextDeadline <= reach) {
        clock = nextDeadline;
        callObservers(std::min(reach, clock + step - 1));
    }
}

std::uint64_t
EventQueue::runEvents(Tick end, std::uint64_t limit)
{
    std::uint64_t count = 0;
    while (!events.empty() && events.nextWhen() <= end && count < limit) {
        if (events.nextWhen() > nextDeadline)
            observeUntil(events.nextWhen() - 1, 1, _now);
        events.runNext(SimProfiler::active(), [this](Tick t) { _now = t; });
        ++count;
        ++statExecuted;
    }
    return count;
}

std::uint64_t
EventQueue::run(std::uint64_t limit)
{
    if (par) {
        // Windows are the smallest unit of parallel work: step whole
        // windows until drained or the (approximate) limit is met.
        // Each non-empty window executes at least one event, so drain
        // loops calling run(1) always make progress.
        std::uint64_t total = 0;
        while (!par->empty() && total < limit)
            total += par->runOneWindow();
        _now = std::max(_now, par->now());
        return total;
    }
    return runEvents(maxTick, limit);
}

std::uint64_t
EventQueue::runUntil(Tick end, std::uint64_t limit)
{
    if (par) {
        (void)limit; // window granularity; see header
        const std::uint64_t n = par->runUntil(end);
        _now = std::max(_now, par->now());
        return n;
    }
    const std::uint64_t count = runEvents(end, limit);
    if (events.empty() || events.nextWhen() > end) {
        observeUntil(end, 1, _now);
        _now = std::max(_now, end);
    }
    return count;
}

} // namespace mcube
