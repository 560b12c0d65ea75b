/** @file
 * Randomised property tests: heavy contended random traffic with the
 * invariant checker attached, parameterised over grid size, seed and
 * feature flags.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <tuple>

#include "core/checker.hh"
#include "core/system.hh"
#include "proc/random_tester.hh"

using namespace mcube;

namespace
{

// gtest prints a parameter that has no PrintTo as a byte dump, and
// the ctest case names carry that dump; the padding is spelled out and
// zeroed so those names do not pick up stack garbage run to run.
struct Flavor
{
    Flavor(unsigned n, std::uint64_t seed, bool snarf, double drop,
           double tset, bool chaos, bool earlyAlloc = false,
           bool cutThrough = false, unsigned pieceWords = 0)
        : n(n), seed(seed), snarf(snarf), drop(drop), tset(tset),
          chaos(chaos), earlyAlloc(earlyAlloc), cutThrough(cutThrough),
          pieceWords(pieceWords)
    {}

    unsigned n;
    std::uint32_t pad0 = 0;
    std::uint64_t seed;
    bool snarf;
    std::uint8_t pad1[7] = {};
    double drop;
    double tset;
    bool chaos;
    bool earlyAlloc;
    bool cutThrough;
    std::uint8_t pad2 = 0;
    unsigned pieceWords;
};
static_assert(sizeof(Flavor) == 48, "Flavor has hidden padding");

std::string
flavorName(const ::testing::TestParamInfo<Flavor> &info)
{
    const Flavor &f = info.param;
    std::string s = "n" + std::to_string(f.n) + "_s"
                  + std::to_string(f.seed);
    if (f.snarf)
        s += "_snarf";
    if (f.drop > 0)
        s += "_drop";
    if (f.tset > 0)
        s += "_locks";
    if (f.chaos)
        s += "_chaos";
    if (f.earlyAlloc)
        s += "_early";
    if (f.cutThrough)
        s += "_cut";
    if (f.pieceWords > 0)
        s += "_pieces";
    return s;
}

} // namespace

class RandomTraffic : public ::testing::TestWithParam<Flavor>
{
};

TEST_P(RandomTraffic, InvariantsHoldAndReadsAreCoherent)
{
    const Flavor &f = GetParam();

    SystemParams p;
    p.n = f.n;
    p.ctrl.cache = {32, 4};
    p.ctrl.mlt = {32, 4};
    p.ctrl.enableSnarfing = f.snarf;
    p.ctrl.dropSignalProb = f.drop;
    p.ctrl.allocateEarlyWrite = f.earlyAlloc;
    p.bus.cutThrough = f.cutThrough;
    p.bus.pieceWords = f.pieceWords;
    p.seed = f.seed;

    MulticubeSystem sys(p);
    CoherenceChecker checker(sys, 32);

    RandomTesterParams tp;
    tp.opsPerNode = 150;
    tp.pTset = f.tset;
    tp.seed = f.seed * 77 + 1;
    tp.chaos = f.chaos;
    RandomTester tester(sys, checker, tp);
    tester.start();

    // Generous bound: every op takes at most a few microseconds.
    sys.eventQueue().runUntil(400'000'000);
    ASSERT_TRUE(tester.finished())
        << "tester did not finish (deadlock/livelock?) — ops issued: "
        << tester.opsIssued();
    ASSERT_TRUE(sys.drain());
    checker.fullSweep();

    for (const auto &s : checker.report())
        ADD_FAILURE() << s;
    EXPECT_EQ(checker.violations(), 0u);

    for (const auto &s : tester.failures())
        ADD_FAILURE() << s;
    EXPECT_EQ(tester.readFailures(), 0u);
    EXPECT_GT(tester.readsChecked(), 0u);
    if (f.tset > 0) {
        EXPECT_GT(tester.locksTaken(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomTraffic,
    ::testing::Values(
        Flavor{2, 1, false, 0.0, 0.0, false},
        Flavor{2, 2, false, 0.0, 0.15, false},
        Flavor{3, 3, false, 0.0, 0.15, false},
        Flavor{4, 4, false, 0.0, 0.0, false},
        Flavor{4, 5, false, 0.0, 0.15, false},
        Flavor{4, 6, true, 0.0, 0.15, false},
        Flavor{4, 7, false, 0.2, 0.0, false},
        Flavor{4, 8, true, 0.2, 0.15, false},
        Flavor{5, 9, false, 0.0, 0.2, false},
        Flavor{4, 10, false, 0.0, 0.2, true},
        Flavor{6, 11, true, 0.1, 0.1, false},
        Flavor{8, 12, false, 0.0, 0.1, false},
        Flavor{4, 13, false, 0.0, 0.1, false, true},
        Flavor{4, 14, true, 0.1, 0.1, true, true},
        Flavor{4, 15, false, 0.0, 0.1, false, false, true},
        Flavor{4, 16, false, 0.0, 0.1, false, false, false, 4},
        Flavor{4, 17, true, 0.1, 0.15, false, true, true, 4}),
    flavorName);

/** SYNC queue locks under random traffic — and under chaos (plain
 *  writes stomping lock lines), which must degenerate per Section 4
 *  without deadlock or value loss. */
TEST(RandomTrafficSync, QueueLocksSurviveRandomTraffic)
{
    SystemParams p;
    p.n = 4;
    p.seed = 71;
    MulticubeSystem sys(p);
    CoherenceChecker checker(sys, 32);
    RandomTesterParams tp;
    tp.opsPerNode = 150;
    tp.pTset = 0.25;
    tp.pSyncOfLocks = 0.6;
    tp.seed = 72;
    RandomTester tester(sys, checker, tp);
    tester.start();
    sys.eventQueue().runUntil(2'000'000'000ull);
    ASSERT_TRUE(tester.finished()) << "sync queue deadlocked";
    ASSERT_TRUE(sys.drain());
    checker.fullSweep();
    for (const auto &s : checker.report())
        ADD_FAILURE() << s;
    EXPECT_EQ(checker.violations(), 0u);
    EXPECT_EQ(tester.readFailures(), 0u);
    EXPECT_GT(tester.locksTaken(), 0u);
}

TEST(RandomTrafficSync, QueueLocksSurviveChaos)
{
    for (std::uint64_t seed : {5ull, 6ull, 7ull}) {
        SystemParams p;
        p.n = 4;
        p.seed = seed;
        MulticubeSystem sys(p);
        CoherenceChecker checker(sys, 32);
        RandomTesterParams tp;
        tp.opsPerNode = 120;
        tp.pTset = 0.2;
        tp.pSyncOfLocks = 0.5;
        tp.chaos = true;  // plain writes may hit lock lines
        tp.seed = seed;
        RandomTester tester(sys, checker, tp);
        tester.start();
        sys.eventQueue().runUntil(3'000'000'000ull);
        ASSERT_TRUE(tester.finished())
            << "seed " << seed << ": chaos sync deadlock";
        ASSERT_TRUE(sys.drain());
        checker.fullSweep();
        for (const auto &s : checker.report())
            ADD_FAILURE() << s;
        EXPECT_EQ(checker.violations(), 0u) << "seed " << seed;
        EXPECT_EQ(tester.readFailures(), 0u) << "seed " << seed;
    }
}

/** Tiny caches + tiny MLTs: constant replacement and overflow traffic
 *  stress the writeback and overflow paths. */
TEST(RandomTrafficStress, TinyStructuresStayCoherent)
{
    SystemParams p;
    p.n = 4;
    p.ctrl.cache = {4, 2};
    p.ctrl.mlt = {2, 2};
    p.seed = 99;

    MulticubeSystem sys(p);
    CoherenceChecker checker(sys, 16);

    RandomTesterParams tp;
    tp.opsPerNode = 120;
    tp.numDataLines = 40;
    tp.pTset = 0.0;
    tp.seed = 1234;
    RandomTester tester(sys, checker, tp);
    tester.start();

    sys.eventQueue().runUntil(400'000'000);
    ASSERT_TRUE(tester.finished());
    ASSERT_TRUE(sys.drain());
    checker.fullSweep();
    for (const auto &s : checker.report())
        ADD_FAILURE() << s;
    EXPECT_EQ(checker.violations(), 0u);
    EXPECT_EQ(tester.readFailures(), 0u);
}

/** Determinism: identical configuration twice gives identical op
 *  counts and golden state. */
TEST(RandomTrafficDeterminism, SameSeedSameOutcome)
{
    auto run = [](std::uint64_t seed) {
        SystemParams p;
        p.n = 4;
        p.seed = seed;
        MulticubeSystem sys(p);
        CoherenceChecker checker(sys, 0);
        RandomTesterParams tp;
        tp.opsPerNode = 80;
        tp.seed = seed + 5;
        RandomTester tester(sys, checker, tp);
        tester.start();
        sys.eventQueue().runUntil(400'000'000);
        EXPECT_TRUE(tester.finished());
        return std::tuple{sys.totalBusOps(), checker.goldenToken(3),
                          sys.eventQueue().eventsExecuted()};
    };
    EXPECT_EQ(run(42), run(42));
    EXPECT_NE(run(42), run(43));
}
