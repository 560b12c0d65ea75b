/** @file Unit tests for the discrete-event queue. */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/parallel_engine.hh"

using namespace mcube;

TEST(EventQueue, StartsEmptyAtTickZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.size(), 0u);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickFiresInScheduleOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CallbackMaySchedule)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.scheduleIn(1, [&] { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 2u);
}

TEST(EventQueue, RunUntilStopsAtBoundaryInclusive)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(11, [&] { ++fired; });
    eq.runUntil(10);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 10u);
    eq.runUntil(100);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueue, RunUntilAdvancesTimeWhenDrained)
{
    EventQueue eq;
    eq.runUntil(42);
    EXPECT_EQ(eq.now(), 42u);
}

#ifdef NDEBUG
TEST(EventQueue, SchedulingInThePastClampsToNowAndCounts)
{
    // Release builds keep the legacy clamp but make the caller bug
    // observable through the sched_past_tick statistic.
    EventQueue eq;
    Tick seen = maxTick;
    eq.schedule(10, [&] {
        eq.schedule(5, [&] { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 10u);
    EXPECT_EQ(eq.schedPastTick(), 1u);
}
#else
TEST(EventQueueDeathTest, SchedulingInThePastAssertsInDebug)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            EventQueue eq;
            eq.schedule(10, [&] { eq.schedule(5, [] {}); });
            eq.run();
        },
        "scheduled in the past");
}
#endif

TEST(EventQueue, PastTickStatStartsAtZero)
{
    EventQueue eq;
    eq.schedule(3, [] {});
    eq.run();
    EXPECT_EQ(eq.schedPastTick(), 0u);
}

TEST(EventQueue, SameTickFifoAcrossInterleavedTicks)
{
    // Tie-break must hold even when same-tick events are scheduled
    // interleaved with other ticks and from inside callbacks.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(20, [&] { order.push_back(4); });
    eq.schedule(10, [&] {
        order.push_back(0);
        eq.schedule(20, [&] { order.push_back(5); });
        eq.scheduleIn(0, [&] { order.push_back(2); });
    });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 4, 5}));
}

TEST(EventQueue, RunUntilBoundarySameTickBatch)
{
    // Every event at exactly the boundary fires, in schedule order,
    // and events one tick later stay queued.
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 4; ++i)
        eq.schedule(50, [&order, i] { order.push_back(i); });
    eq.schedule(51, [&] { order.push_back(99); });
    eq.runUntil(50);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(eq.size(), 1u);
    EXPECT_EQ(eq.now(), 50u);
}

TEST(EventQueue, StressOrderingMatchesReference)
{
    // Pseudo-random (tick, id) schedule; execution order must equal a
    // stable sort by (tick, schedule order). Both users of the event
    // heap run it: the sequential queue, and a 1-worker parallel
    // engine, where every schedule lands on the serial lane's heap.
    std::vector<std::pair<Tick, int>> schedule;
    std::uint64_t state = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 2000; ++i) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        schedule.emplace_back(state % 97, i);
    }
    auto runSchedule = [&schedule](EventQueue &eq) {
        std::vector<int> order;
        for (const auto &[t, i] : schedule)
            eq.schedule(t, [&order, i = i] { order.push_back(i); });
        eq.run();
        return order;
    };
    std::vector<std::pair<Tick, int>> expect = schedule;
    std::stable_sort(expect.begin(), expect.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });

    EventQueue seq;
    EventQueue lane;
    ParallelEngine engine(lane, 1, 1, 5);
    lane.setParallel(&engine);
    for (EventQueue *eq : {&seq, &lane}) {
        const std::vector<int> order = runSchedule(*eq);
        ASSERT_EQ(order.size(), expect.size());
        for (std::size_t i = 0; i < expect.size(); ++i)
            EXPECT_EQ(order[i], expect[i].second)
                << i << (eq == &lane ? " (lane)" : "");
    }
}

TEST(EventQueue, OversizedCaptureFallsBackToHeap)
{
    // Captures larger than the inline buffer still work (heap path).
    struct Big
    {
        std::array<std::uint64_t, 32> payload{};
    };
    static_assert(!EventFn::fitsInline<Big>() || sizeof(Big) <= 104);
    EventQueue eq;
    Big big;
    big.payload[31] = 7;
    std::uint64_t seen = 0;
    eq.schedule(1, [big, &seen] { seen = big.payload[31]; });
    eq.run();
    EXPECT_EQ(seen, 7u);
}

TEST(EventQueue, RunLimitCountsEvents)
{
    EventQueue eq;
    int fired = 0;
    for (int i = 0; i < 5; ++i)
        eq.schedule(i, [&] { ++fired; });
    EXPECT_EQ(eq.run(3), 3u);
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(eq.run(), 2u);
    EXPECT_EQ(eq.eventsExecuted(), 5u);
}

TEST(EventQueue, ScheduleInUsesCurrentTime)
{
    EventQueue eq;
    Tick fired_at = 0;
    eq.schedule(7, [&] {
        eq.scheduleIn(3, [&] { fired_at = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(fired_at, 10u);
}

TEST(EventQueue, ObserversRunBetweenEventsOncePerDeadline)
{
    // Sequentially an observer runs from the run loop, never as an
    // event: once per deadline, with now() at the deadline and every
    // event up to it done, also across a stretch with no events.
    // Dropping the handle unregisters it.
    EventQueue eq;
    std::size_t ran = 0;
    eq.schedule(100, [&] { ++ran; });
    eq.schedule(150, [&] { ++ran; });
    std::vector<std::pair<Tick, std::size_t>> calls;
    EventQueue::ObserverHandle h =
        eq.observe(100, [&] { calls.emplace_back(eq.now(), ran); });
    eq.runUntil(450);
    EXPECT_EQ(calls, (std::vector<std::pair<Tick, std::size_t>>{
                         {100, 1}, {200, 2}, {300, 2}, {400, 2}}));
    EXPECT_EQ(eq.now(), 450u);
    EXPECT_EQ(eq.eventsExecuted(), 2u);
    h.reset();
    eq.runUntil(1'000);
    EXPECT_EQ(calls.size(), 4u);
}

TEST(EventQueue, EngineObserversRunAtWindowEnds)
{
    // Under the parallel engine an observer runs at the end of the
    // first window that reaches its deadline, with now() at that
    // window's start; deadlines in an event-free stretch fire with
    // now() at the deadline, at most once per window width.
    EventQueue eq;
    ParallelEngine engine(eq, 2, 1, 50);
    eq.setParallel(&engine);
    std::size_t ran = 0;
    eq.schedule(180, [&] { ++ran; });
    eq.schedule(230, [&] { ++ran; });
    std::vector<std::pair<Tick, std::size_t>> calls;
    EventQueue::ObserverHandle h =
        eq.observe(100, [&] { calls.emplace_back(eq.now(), ran); });
    eq.runUntil(600);
    EXPECT_EQ(calls, (std::vector<std::pair<Tick, std::size_t>>{
                         {100, 0}, {180, 1}, {300, 2}, {400, 2},
                         {500, 2}, {600, 2}}));
    EXPECT_EQ(eq.now(), 600u);
    h.reset();

    unsigned every = 0;
    EventQueue::ObserverHandle w = eq.observe(1, [&] { ++every; });
    eq.runUntil(1'600);
    EXPECT_EQ(every, 1'000u / 50);
}
