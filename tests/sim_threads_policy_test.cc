/** @file
 * The --sim-threads fallback policy (sim/sim_threads_policy.hh).
 *
 * sweep_cli promises that when an incompatible flag forces the
 * parallel engine off, it says so on stderr with one line *naming the
 * flag* — a silent fallback would let a user benchmark the sequential
 * engine believing it was sharded. The policy (and its exact warning
 * text) lives in the library precisely so this test can pin it.
 *
 * Equally important is what must NOT force the fallback: metrics
 * sampling runs as a window-end observer, and a profiled or traced
 * run executes its lanes on the observing thread, so all three
 * compose with --sim-threads and the policy has no knob for them at
 * all. Only fault injection forces the sequential engine.
 */

#include <gtest/gtest.h>

#include <string>

#include "sim/sim_threads_policy.hh"

using namespace mcube;

namespace
{

bool
mentions(const std::string &line, const std::string &needle)
{
    return line.find(needle) != std::string::npos;
}

} // namespace

TEST(SimThreadsPolicy, CleanRequestStands)
{
    SimThreadsRequest req;
    req.simThreads = 4;
    const SimThreadsDecision d = resolveSimThreads(req);
    EXPECT_EQ(d.simThreads, 4u);
    EXPECT_FALSE(d.forced());
    EXPECT_TRUE(d.warnings.empty());
}

TEST(SimThreadsPolicy, SequentialRequestNeverWarns)
{
    // --sim-threads=0 with every incompatible feature on: nothing was
    // taken away from the user, so nothing is worth a warning line.
    SimThreadsRequest req;
    req.simThreads = 0;
    req.faultDrop = true;
    req.faultPlan = true;
    const SimThreadsDecision d = resolveSimThreads(req);
    EXPECT_EQ(d.simThreads, 0u);
    EXPECT_FALSE(d.forced());
}

TEST(SimThreadsPolicy, FaultDropForcesAndNamesItsFlag)
{
    SimThreadsRequest req;
    req.simThreads = 2;
    req.faultDrop = true;
    const SimThreadsDecision d = resolveSimThreads(req);
    EXPECT_EQ(d.simThreads, 0u);
    ASSERT_EQ(d.warnings.size(), 1u);
    EXPECT_TRUE(mentions(d.warnings[0], "--fault-drop"))
        << d.warnings[0];
    EXPECT_TRUE(mentions(d.warnings[0], "forcing --sim-threads=0"))
        << d.warnings[0];
}

TEST(SimThreadsPolicy, FaultPlanForcesAndNamesItsFlag)
{
    SimThreadsRequest req;
    req.simThreads = 8;
    req.faultPlan = true;
    const SimThreadsDecision d = resolveSimThreads(req);
    EXPECT_EQ(d.simThreads, 0u);
    ASSERT_EQ(d.warnings.size(), 1u);
    EXPECT_TRUE(mentions(d.warnings[0], "--fault-plan"))
        << d.warnings[0];
    EXPECT_TRUE(mentions(d.warnings[0], "forcing --sim-threads=0"))
        << d.warnings[0];
}

TEST(SimThreadsPolicy, EachForcingFlagGetsItsOwnLine)
{
    // Several incompatible flags at once: the user should see every
    // reason, one line each, not just the first one found.
    SimThreadsRequest req;
    req.simThreads = 4;
    req.faultDrop = true;
    req.faultPlan = true;
    const SimThreadsDecision d = resolveSimThreads(req);
    EXPECT_EQ(d.simThreads, 0u);
    ASSERT_EQ(d.warnings.size(), 2u);
    EXPECT_TRUE(mentions(d.warnings[0], "--fault-drop"));
    EXPECT_TRUE(mentions(d.warnings[1], "--fault-plan"));
    for (const std::string &w : d.warnings)
        EXPECT_TRUE(mentions(w, "forcing --sim-threads=0")) << w;
}

TEST(SimThreadsPolicy, NoWarningEverMentionsProfilingOrTracing)
{
    // Observers compose with the parallel engine, so the policy has
    // no knob for them: even with every forcing flag on, no warning
    // may blame --profile-out, --trace-out or --metrics-out. If a
    // forcing knob for an observer ever reappears, this test is where
    // that decision has to be revisited deliberately.
    SimThreadsRequest req;
    req.simThreads = 4;
    req.faultDrop = true;
    req.faultPlan = true;
    const SimThreadsDecision d = resolveSimThreads(req);
    ASSERT_FALSE(d.warnings.empty());
    for (const std::string &w : d.warnings) {
        EXPECT_FALSE(mentions(w, "profile")) << w;
        EXPECT_FALSE(mentions(w, "trace")) << w;
        EXPECT_FALSE(mentions(w, "--metrics-out")) << w;
    }
}
