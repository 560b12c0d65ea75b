/** @file
 * Supervisor + journal unit tests: the exit-triage table, forked
 * workers for every triage class (clean, item-failed, crash-signal,
 * timeout, stalled-heartbeat, OOM under an address-space cap) and
 * WorkJournal durability — resume loading, campaign-key mismatch
 * refusal, and torn-trailing-line neutralization.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#ifdef __unix__
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "run/exit_triage.hh"
#include "run/supervisor.hh"
#include "run/work_journal.hh"
#include "sim/json.hh"

using namespace mcube;
using namespace mcube::run;

namespace
{

std::string
tempPath(const std::string &stem)
{
    return ::testing::TempDir() + stem + "_"
         + std::to_string(::getpid());
}

} // namespace

// ---------------------------------------------------------------------
// Triage table
// ---------------------------------------------------------------------

TEST(ExitTriage, StringsRoundTrip)
{
    for (Triage t : {Triage::Clean, Triage::ItemFailed, Triage::BadInput,
                     Triage::Oom, Triage::Fatal, Triage::CrashSignal,
                     Triage::Timeout, Triage::Stalled}) {
        Triage back = Triage::Clean;
        ASSERT_TRUE(triageFromString(toString(t), back)) << toString(t);
        EXPECT_EQ(back, t);
    }
    Triage t;
    EXPECT_FALSE(triageFromString("nonsense", t));
}

TEST(ExitTriage, FailureAndAbnormalClasses)
{
    EXPECT_FALSE(isFailure(Triage::Clean));
    EXPECT_TRUE(isFailure(Triage::ItemFailed));
    EXPECT_TRUE(isFailure(Triage::CrashSignal));

    EXPECT_FALSE(isAbnormal(Triage::Clean));
    EXPECT_FALSE(isAbnormal(Triage::ItemFailed));
    EXPECT_FALSE(isAbnormal(Triage::BadInput));
    EXPECT_TRUE(isAbnormal(Triage::Oom));
    EXPECT_TRUE(isAbnormal(Triage::Fatal));
    EXPECT_TRUE(isAbnormal(Triage::CrashSignal));
    EXPECT_TRUE(isAbnormal(Triage::Timeout));
    EXPECT_TRUE(isAbnormal(Triage::Stalled));
}

#ifdef __unix__
TEST(ExitTriage, WaitStatusTable)
{
    auto exited = [](int code) { return code << 8; };
    auto signaled = [](int sig) { return sig; };

    EXPECT_EQ(triageWaitStatus(exited(0), SupervisorKill::None),
              Triage::Clean);
    EXPECT_EQ(triageWaitStatus(exited(1), SupervisorKill::None),
              Triage::ItemFailed);
    EXPECT_EQ(triageWaitStatus(exited(2), SupervisorKill::None),
              Triage::BadInput);
    EXPECT_EQ(triageWaitStatus(exited(kOomExit), SupervisorKill::None),
              Triage::Oom);
    EXPECT_EQ(triageWaitStatus(exited(kFatalExit), SupervisorKill::None),
              Triage::Fatal);
    EXPECT_EQ(triageWaitStatus(signaled(SIGSEGV), SupervisorKill::None),
              Triage::CrashSignal);
    // Unsolicited SIGKILL is the kernel OOM killer's signature.
    EXPECT_EQ(triageWaitStatus(signaled(SIGKILL), SupervisorKill::None),
              Triage::Oom);
    // A kill we sent ourselves outranks whatever the wait status says.
    EXPECT_EQ(triageWaitStatus(signaled(SIGKILL),
                               SupervisorKill::Deadline),
              Triage::Timeout);
    EXPECT_EQ(triageWaitStatus(signaled(SIGKILL),
                               SupervisorKill::Heartbeat),
              Triage::Stalled);
}
#endif

// ---------------------------------------------------------------------
// Supervised workers, one per triage class
// ---------------------------------------------------------------------

TEST(Supervisor, CleanWorkerReturnsResult)
{
    if (!Supervisor::supported())
        GTEST_SKIP() << "no fork on this platform";
    Supervisor sup;
    WorkerOutcome out = sup.runOne(
        [](const Heartbeat &hb, std::string &res) {
            hb.beat();
            res = "payload-42";
            return 0;
        });
    EXPECT_EQ(out.triage, Triage::Clean);
    EXPECT_EQ(out.exitCode, 0);
    EXPECT_EQ(out.result, "payload-42");
    EXPECT_GE(out.heartbeats, 1u);
}

TEST(Supervisor, ItemFailedKeepsResult)
{
    if (!Supervisor::supported())
        GTEST_SKIP();
    Supervisor sup;
    WorkerOutcome out = sup.runOne(
        [](const Heartbeat &, std::string &res) {
            res = "failing-item";
            return 1;
        });
    EXPECT_EQ(out.triage, Triage::ItemFailed);
    EXPECT_EQ(out.result, "failing-item");
}

TEST(Supervisor, CrashingWorkerTriagesAsCrashSignal)
{
    if (!Supervisor::supported())
        GTEST_SKIP();
    Supervisor sup;
    WorkerOutcome out = sup.runOne(
        [](const Heartbeat &, std::string &) -> int {
            std::abort();
        });
    EXPECT_EQ(out.triage, Triage::CrashSignal);
    EXPECT_EQ(out.termSignal, SIGABRT);
}

TEST(Supervisor, ThrowingWorkerTriagesAsFatal)
{
    if (!Supervisor::supported())
        GTEST_SKIP();
    Supervisor sup;
    WorkerOutcome out = sup.runOne(
        [](const Heartbeat &, std::string &) -> int {
            throw std::runtime_error("boom");
        });
    EXPECT_EQ(out.triage, Triage::Fatal);
    EXPECT_EQ(out.exitCode, kFatalExit);
}

TEST(Supervisor, DeadlineKillTriagesAsTimeout)
{
    if (!Supervisor::supported())
        GTEST_SKIP();
    WorkerLimits lim;
    lim.wallSeconds = 0.3;
    Supervisor sup(lim);
    WorkerOutcome out = sup.runOne(
        [](const Heartbeat &hb, std::string &) {
            // Beating does not save a worker from its wall deadline.
            for (;;) {
                hb.beat();
                ::usleep(50'000);
            }
            return 0;
        });
    EXPECT_EQ(out.triage, Triage::Timeout);
    EXPECT_LT(out.wallSeconds, 5.0);
}

TEST(Supervisor, SilentWorkerTriagesAsStalled)
{
    if (!Supervisor::supported())
        GTEST_SKIP();
    WorkerLimits lim;
    lim.wallSeconds = 30.0;       // generous: heartbeat must fire first
    lim.heartbeatSeconds = 0.3;
    Supervisor sup(lim);
    WorkerOutcome out = sup.runOne(
        [](const Heartbeat &, std::string &) {
            ::usleep(10'000'000);  // 10 s of silence
            return 0;
        });
    EXPECT_EQ(out.triage, Triage::Stalled);
    EXPECT_LT(out.wallSeconds, 5.0);
}

TEST(Supervisor, SlowButBeatingWorkerSurvives)
{
    if (!Supervisor::supported())
        GTEST_SKIP();
    WorkerLimits lim;
    lim.heartbeatSeconds = 0.4;
    Supervisor sup(lim);
    WorkerOutcome out = sup.runOne(
        [](const Heartbeat &hb, std::string &res) {
            // Runs 1 s total — far past the 0.4 s silence budget —
            // but each beat resets the window: slow != stalled.
            for (int i = 0; i < 10; ++i) {
                ::usleep(100'000);
                hb.beat();
            }
            res = "slow-ok";
            return 0;
        });
    EXPECT_EQ(out.triage, Triage::Clean);
    EXPECT_EQ(out.result, "slow-ok");
    EXPECT_GE(out.heartbeats, 5u);
}

TEST(Supervisor, AllocationPastRssCapTriagesAsOom)
{
    if (!Supervisor::supported())
        GTEST_SKIP();
    WorkerLimits lim;
    lim.rssBytes = 256ull << 20;
    Supervisor sup(lim);
    WorkerOutcome out = sup.runOne(
        [](const Heartbeat &, std::string &) {
            std::vector<char> hog(2ull << 30, 'x');  // 2 GiB
            return hog.empty() ? 1 : 0;
        });
    EXPECT_EQ(out.triage, Triage::Oom);
    EXPECT_EQ(out.exitCode, kOomExit);
}

// ---------------------------------------------------------------------
// WorkJournal
// ---------------------------------------------------------------------

TEST(WorkJournal, RecordFinishReload)
{
    const std::string path = tempPath("journal_basic");
    std::remove(path.c_str());
    const std::uint64_t key = WorkJournal::keyOf("campaign-A");

    {
        WorkJournal j;
        std::string err;
        ASSERT_TRUE(j.open(path, key, Json::object(), &err)) << err;
        EXPECT_EQ(j.loaded(), 0u);
        for (int i = 0; i < 3; ++i) {
            Json rec = Json::object();
            rec.set("value", std::uint64_t(i * 10));
            ASSERT_TRUE(j.record("item_" + std::to_string(i), rec));
        }
        j.finish();
    }

    WorkJournal j;
    std::string err;
    ASSERT_TRUE(j.open(path, key, Json::object(), &err)) << err;
    EXPECT_EQ(j.loaded(), 3u);
    EXPECT_TRUE(j.has("item_1"));
    EXPECT_FALSE(j.has("item_9"));
    const Json *rec = j.find("item_2");
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->u64("value", 0), 20u);
    std::remove(path.c_str());
}

TEST(WorkJournal, RefusesKeyMismatch)
{
    const std::string path = tempPath("journal_key");
    std::remove(path.c_str());
    {
        WorkJournal j;
        ASSERT_TRUE(j.open(path, WorkJournal::keyOf("campaign-A"),
                           Json::object()));
        j.finish();
    }
    WorkJournal j;
    std::string err;
    EXPECT_FALSE(j.open(path, WorkJournal::keyOf("campaign-B"),
                        Json::object(), &err));
    EXPECT_NE(err.find("key mismatch"), std::string::npos) << err;
    std::remove(path.c_str());
}

TEST(WorkJournal, TornTrailingLineIsNeutralized)
{
    const std::string path = tempPath("journal_torn");
    std::remove(path.c_str());
    const std::uint64_t key = WorkJournal::keyOf("campaign-T");
    {
        WorkJournal j;
        ASSERT_TRUE(j.open(path, key, Json::object()));
        Json rec = Json::object();
        rec.set("v", 1u);
        ASSERT_TRUE(j.record("good", rec));
        j.abandon();  // crash: no footer
    }
    {
        // Simulate a power cut mid-append: half a line, no newline.
        std::ofstream out(path, std::ios::app | std::ios::binary);
        out << "{\"item\":\"torn\",\"record\":{\"v\"";
    }
    {
        WorkJournal j;
        std::string err;
        ASSERT_TRUE(j.open(path, key, Json::object(), &err)) << err;
        EXPECT_EQ(j.loaded(), 1u);  // torn line skipped
        EXPECT_TRUE(j.has("good"));
        EXPECT_FALSE(j.has("torn"));
        Json rec = Json::object();
        rec.set("v", 2u);
        ASSERT_TRUE(j.record("after", rec));
        j.abandon();
    }
    // The post-torn append must load cleanly too.
    WorkJournal j;
    ASSERT_TRUE(j.open(path, key, Json::object()));
    EXPECT_EQ(j.loaded(), 2u);
    EXPECT_TRUE(j.has("after"));
    std::remove(path.c_str());
}

TEST(WorkJournal, KeyOfSeparatesConfigs)
{
    EXPECT_NE(WorkJournal::keyOf("a"), WorkJournal::keyOf("b"));
    EXPECT_NE(WorkJournal::keyOf("seed=1"), WorkJournal::keyOf("seed=2"));
    EXPECT_EQ(WorkJournal::keyOf("same"), WorkJournal::keyOf("same"));
}
