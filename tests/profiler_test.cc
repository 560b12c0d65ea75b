/** @file
 * Tests for the simulator self-profiler: the zero-perturbation
 * contract (fixed-seed runs are bit-identical with profiling on or
 * off), the event-queue profile, the JSON round-trip through
 * profReport, and the folded stacks profFolded renders from the
 * parsed JSON.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <sstream>
#include <string>

#include "core/system.hh"
#include "proc/mix_workload.hh"
#include "sim/json.hh"
#include "sim/profiler.hh"
#include "sim/stats.hh"

using namespace mcube;

namespace
{

struct RunResult
{
    FlatStats stats;
    std::uint64_t events = 0;
    Tick finalTick = 0;
};

/** One fixed-seed mix run on an n x n machine, optionally profiled. */
RunResult
runMix(unsigned n, double sim_ms, SimProfiler *prof)
{
    if (prof)
        prof->activate();
    SystemParams sp;
    sp.n = n;
    MulticubeSystem sys(sp);
    MixParams mix;
    mix.requestsPerMs = 25.0;
    MixWorkload wl(sys, mix);
    wl.start();
    sys.run(static_cast<Tick>(sim_ms * 1e6));
    wl.stop();
    sys.drain();
    if (prof)
        prof->deactivate();

    RunResult out;
    sys.statistics().flatten(out.stats);
    out.events = sys.eventQueue().eventsExecuted();
    out.finalTick = sys.eventQueue().now();
    return out;
}

/** Export @p prof as JSON and parse it back, as mcube_report does. */
Json
roundTrip(const SimProfiler &prof)
{
    std::ostringstream json;
    prof.exportJson(json);
    std::string err;
    Json profile = Json::parse(json.str(), &err);
    EXPECT_FALSE(profile.isNull()) << err;
    return profile;
}

} // namespace

TEST(SimProfiler, InactiveByDefault)
{
    EXPECT_EQ(SimProfiler::active(), nullptr);
    SimProfiler prof;
    EXPECT_EQ(SimProfiler::active(), nullptr);
    prof.activate();
    EXPECT_EQ(SimProfiler::active(), &prof);
    prof.deactivate();
    EXPECT_EQ(SimProfiler::active(), nullptr);
}

TEST(SimProfiler, DeactivatesOnDestruction)
{
    {
        SimProfiler prof;
        prof.activate();
        EXPECT_EQ(SimProfiler::active(), &prof);
    }
    EXPECT_EQ(SimProfiler::active(), nullptr);
}

// The load-bearing contract: the profiler observes host time only.
// A fixed-seed run must produce the bit-identical stat tree, event
// count and final tick whether or not it was profiled.
TEST(SimProfiler, ProfilingDoesNotPerturbSimulation)
{
    RunResult plain = runMix(4, 0.5, nullptr);
    SimProfiler prof;
    RunResult profiled = runMix(4, 0.5, &prof);

    EXPECT_EQ(plain.events, profiled.events);
    EXPECT_EQ(plain.finalTick, profiled.finalTick);
    ASSERT_EQ(plain.stats.size(), profiled.stats.size());
    for (std::size_t i = 0; i < plain.stats.size(); ++i) {
        EXPECT_EQ(plain.stats[i].first, profiled.stats[i].first);
        EXPECT_EQ(plain.stats[i].second, profiled.stats[i].second)
            << plain.stats[i].first;
    }
}

TEST(SimProfiler, CountsEventsAndScopes)
{
    SimProfiler prof;
    RunResult r = runMix(4, 0.5, &prof);

    EXPECT_EQ(prof.eventCount(), r.events);
    // Every event opens a scope, and bus/controller work nests more.
    EXPECT_GT(prof.scopeCount(), prof.eventCount());
    EXPECT_GT(prof.wallNs(), 0u);
}

TEST(SimProfiler, JsonRoundTripThroughReport)
{
    SimProfiler prof;
    runMix(4, 0.5, &prof);

    const Json profile = roundTrip(prof);
    EXPECT_EQ(profile.u64("profile_version", 0), 2u);
    EXPECT_EQ(profile.u64("events", 0), prof.eventCount());
    EXPECT_FALSE(profile.has("coupling"));

    std::ostringstream report;
    ASSERT_TRUE(profReport(profile, report));
    const std::string text = report.str();
    EXPECT_NE(text.find("host time by kind"), std::string::npos);
    EXPECT_NE(text.find("event queue:"), std::string::npos);
    EXPECT_NE(text.find("host time by domain"), std::string::npos);
    EXPECT_EQ(text.find("coupling"), std::string::npos);

    // Not-a-profile JSON is rejected, not misreported.
    Json other = Json::parse("{\"x\": 1}");
    std::ostringstream sink;
    EXPECT_FALSE(profReport(other, sink));
    EXPECT_FALSE(profFolded(other, sink));
    EXPECT_TRUE(sink.str().empty());
}

TEST(SimProfiler, FoldedStacksAreWellFormed)
{
    SimProfiler prof;
    runMix(4, 0.5, &prof);

    // The JSON -> folded round trip behind `mcube_report folded`.
    const Json profile = roundTrip(prof);
    std::ostringstream folded;
    ASSERT_TRUE(profFolded(profile, folded));
    std::istringstream in(folded.str());
    std::string line;
    unsigned lines = 0;
    bool sawNested = false;
    while (std::getline(in, line)) {
        ++lines;
        // "frame;frame;frame <self_ns>": one space, positive count.
        auto sp = line.rfind(' ');
        ASSERT_NE(sp, std::string::npos) << line;
        ASSERT_GT(sp, 0u) << line;
        const std::string stack = line.substr(0, sp);
        const std::string count = line.substr(sp + 1);
        ASSERT_FALSE(count.empty()) << line;
        for (char c : count)
            EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(c)))
                << line;
        // Every stack is rooted in the event-loop frame.
        EXPECT_EQ(stack.rfind("event", 0), 0u) << line;
        if (stack.find(';') != std::string::npos)
            sawNested = true;
    }
    EXPECT_EQ(lines, profile.at("stacks").size());
    EXPECT_TRUE(sawNested);
}

TEST(SimProfiler, QueueProfileInJson)
{
    SimProfiler prof;
    runMix(4, 0.5, &prof);

    const Json profile = roundTrip(prof);
    const Json &eq = profile.at("event_queue");
    EXPECT_GT(eq.at("depth").u64("count", 0), 0u);
    EXPECT_GT(eq.at("schedule_horizon_ticks").u64("count", 0), 0u);
    EXPECT_GT(eq.u64("slab_high_water", 0), 0u);

    // The embedded folded stacks are what profFolded renders.
    EXPECT_GT(profile.at("stacks").size(), 0u);
}
