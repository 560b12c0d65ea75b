/**
 * @file
 * Chaos-campaign driver (see docs/FUZZING.md, docs/ROBUSTNESS.md).
 *
 * Modes:
 *
 *   fuzz_campaign [--runs=N] [--campaign-seed=S] [--time-budget-s=T]
 *                 [--out-dir=DIR] [--no-shrink] [--max-shrink-runs=N]
 *                 [--plant-bug] [--journal=FILE | --no-journal]
 *                 [--resume] [--no-isolate] [--deadline-s=T]
 *                 [--heartbeat-s=T] [--rss-mb=M]
 *       Generate and run a seeded campaign. Each case runs in a
 *       forked, resource-limited worker (unless --no-isolate): a
 *       crashing / OOMing / wedged case is triaged and written as a
 *       replayable crash artifact instead of killing the campaign.
 *       Completed cases append to a journal (default
 *       <out-dir>/journal.jsonl); --resume skips journaled cases, and
 *       the union of an interrupted + resumed campaign is identical
 *       to an uninterrupted one. SIGINT/SIGTERM drain gracefully
 *       (exit 128+signal, journal stays resumable); a second signal
 *       kills immediately. Failing runs write a self-contained repro
 *       artifact (<out-dir>/repro_<seed>_<i>.json) and, unless
 *       --no-shrink, a delta-debugged minimal repro (... .min.json).
 *       Exit 0 if every run passed, 1 otherwise.
 *
 *   fuzz_campaign --replay=FILE [--shrink] [--out-dir=DIR]
 *       Re-run the artifact's config and compare the result hash with
 *       the recorded one. Exit 0 on a bit-identical reproduction that
 *       still fails, 2 if the run no longer fails (bug fixed?), 3 if
 *       the hash diverged (non-determinism or binary drift), 4 if the
 *       artifact itself is corrupt, truncated, or from an
 *       incompatible format version.
 *
 *   fuzz_campaign --one-off --n=N --sys-seed=S --tester-seed=S ...
 *       Run a single explicit config (the form RandomTester's failure
 *       banner prints). Exit 0 on pass, 1 on failure.
 *
 * A flag the mode does not take, a number that does not parse whole,
 * or --runs=0 exits 2 with one stderr line naming the flag.
 */

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <string_view>

#include "fuzz/campaign.hh"
#include "run/crash_handler.hh"
#include "run/parse_number.hh"
#include "run/provenance.hh"
#include "run/shutdown.hh"

using namespace mcube;
using namespace mcube::fuzz;

namespace
{

struct Args
{
    std::map<std::string, std::string> kv;
    /** The first usage error num() met; empty while all parsed. */
    std::string error;

    bool has(const std::string &key) const { return kv.count(key) != 0; }

    std::string
    str(const std::string &key, const std::string &dflt = "") const
    {
        auto it = kv.find(key);
        return it == kv.end() ? dflt : it->second;
    }

    /** The value of --@p key as a number, @p dflt when it is absent.
     *  A value that does not parse whole sets error. */
    template <class T>
    T
    num(const std::string &key, T dflt)
    {
        T out = dflt;
        auto it = kv.find(key);
        if (it != kv.end() && !run::parseNumber(it->second, out)
            && error.empty())
            error = "--" + key + ": '" + it->second
                  + "' is not a valid number";
        return out;
    }
};

// The flags each mode takes; any other is a usage error.
constexpr std::string_view kCampaignFlags[] = {
    "runs", "campaign-seed", "time-budget-s", "out-dir", "no-shrink",
    "max-shrink-runs", "plant-bug", "journal", "no-journal", "resume",
    "no-isolate", "deadline-s", "heartbeat-s", "rss-mb",
    "plant-crash-at"};
constexpr std::string_view kReplayFlags[] = {
    "replay", "shrink", "out-dir", "max-shrink-runs"};
constexpr std::string_view kOneOffFlags[] = {
    "one-off", "n", "sys-seed", "timeout-ticks", "max-ticks",
    "tester-seed", "ops", "data-lines", "lock-lines", "p-write",
    "p-alloc", "p-tset", "p-sync", "think", "chaos", "plan"};

/** Print "fuzz_campaign: <msg>" as the one line of a usage error. */
int
usageError(const std::string &msg)
{
    std::cerr << "fuzz_campaign: " << msg << "\n";
    return 2;
}

int
usage()
{
    std::cerr
        << "usage: fuzz_campaign [--runs=N] [--campaign-seed=S]\n"
           "                     [--time-budget-s=T] [--out-dir=DIR]\n"
           "                     [--no-shrink] [--max-shrink-runs=N]\n"
           "                     [--plant-bug]\n"
           "                     [--journal=FILE | --no-journal] [--resume]\n"
           "                     [--no-isolate] [--deadline-s=T]\n"
           "                     [--heartbeat-s=T] [--rss-mb=M]\n"
           "       fuzz_campaign --replay=FILE [--shrink] [--out-dir=DIR]\n"
           "       fuzz_campaign --one-off --n=N --sys-seed=S\n"
           "                     [--tester-seed=S] [--ops=N] [--chaos=1]\n"
           "                     [--plan=FILE] ... (see docs/FUZZING.md)\n";
    return 2;
}

void
printResult(const RunConfig &cfg, const RunResult &res)
{
    std::cout << "config: n=" << cfg.n << " sys-seed=" << cfg.sysSeed
              << " tester-seed=" << cfg.tester.seed
              << " ops=" << cfg.tester.opsPerNode
              << " specs=" << cfg.plan.specs.size() << "\n"
              << "result: " << toString(res.failure) << " hash=0x"
              << std::hex << res.hash << std::dec
              << " ops=" << res.opsIssued << " bus-ops=" << res.busOps
              << " injections=" << res.injections
              << " violations=" << res.violations
              << " read-failures=" << res.readFailures
              << " end-tick=" << res.endTick << "\n";
    for (const auto &s : res.report)
        std::cout << "  " << s << "\n";
}

int
replay(Args &args, const std::string &header)
{
    const std::string path = args.str("replay");
    const unsigned maxShrinkRuns = args.num("max-shrink-runs", 400u);
    if (!args.error.empty())
        return usageError(args.error);
    std::cout << header << "\n";

    std::ifstream in(path);
    if (!in) {
        std::cerr << "fuzz_campaign: cannot open " << path << "\n";
        return 2;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    std::string err;
    Json j = Json::parse(ss.str(), &err);
    if (!err.empty()) {
        // Exit 4: the artifact file itself is bad (truncated upload,
        // hand-edited, version skew) — distinct from "cannot open"
        // (2) and from "opens fine but no longer reproduces" (2/3).
        std::cerr << "fuzz_campaign: " << path
                  << ": corrupt artifact: " << err << "\n";
        return 4;
    }
    if (std::string why = artifactParseError(j); !why.empty()) {
        std::cerr << "fuzz_campaign: " << path << ": " << why << "\n";
        return 4;
    }
    RunConfig cfg;
    std::uint64_t wantHash = 0;
    FailureKind wantFailure = FailureKind::None;
    if (!artifactFromJson(j, cfg, wantHash, wantFailure)) {
        std::cerr << "fuzz_campaign: " << path
                  << ": not a repro artifact\n";
        return 4;
    }

    // A crash artifact records the config and the worker's triage but
    // no result: replay it for the crash, not for a hash comparison.
    if (!j.has("result") && j.has("worker")) {
        std::cout << "replay: crash artifact (worker triage: "
                  << j.at("worker").str("triage", "?")
                  << "); re-running config in-process\n";
        RunResult res = runOnce(cfg);
        printResult(cfg, res);
        std::cout << "replay: config ran to completion without "
                     "crashing this binary\n";
        return res.failed() ? 1 : 0;
    }

    RunResult res = runOnce(cfg);
    printResult(cfg, res);

    if (res.hash != wantHash) {
        std::cout << "replay: hash mismatch (recorded 0x" << std::hex
                  << wantHash << ", got 0x" << res.hash << std::dec
                  << ") - non-deterministic or the binary changed\n";
        return 3;
    }
    if (!res.failed()) {
        std::cout << "replay: bit-identical, and the run no longer "
                     "fails\n";
        return 2;
    }
    std::cout << "replay: reproduced bit-identically ("
              << toString(res.failure) << ")\n";

    if (args.has("shrink")) {
        ShrinkResult s = shrinkRepro(
            cfg, maxShrinkRuns,
            [](const std::string &m) { std::cout << m << "\n"; });
        std::string out = args.str("out-dir", ".") + "/replay.min.json";
        std::ofstream o(out);
        o << artifactJson(s.config, s.result, "shrunken from " + path)
                 .dump();
        std::cout << "wrote " << out << "\n";
    }
    return 0;
}

int
oneOff(Args &args, const std::string &header)
{
    RunConfig cfg;
    cfg.n = args.num("n", cfg.n);
    cfg.sysSeed = args.num("sys-seed", cfg.sysSeed);
    cfg.requestTimeoutTicks =
        args.num("timeout-ticks", cfg.requestTimeoutTicks);
    cfg.maxTicks = args.num("max-ticks", cfg.maxTicks);

    cfg.tester.seed = args.num("tester-seed", cfg.tester.seed);
    cfg.tester.opsPerNode = args.num("ops", cfg.tester.opsPerNode);
    cfg.tester.numDataLines =
        args.num("data-lines", cfg.tester.numDataLines);
    cfg.tester.numLockLines =
        args.num("lock-lines", cfg.tester.numLockLines);
    cfg.tester.pWrite = args.num("p-write", cfg.tester.pWrite);
    cfg.tester.pAllocate = args.num("p-alloc", cfg.tester.pAllocate);
    cfg.tester.pTset = args.num("p-tset", cfg.tester.pTset);
    cfg.tester.pSyncOfLocks =
        args.num("p-sync", cfg.tester.pSyncOfLocks);
    cfg.tester.maxThink = args.num("think", cfg.tester.maxThink);
    cfg.tester.chaos = args.num("chaos", cfg.tester.chaos);
    if (!args.error.empty())
        return usageError(args.error);
    std::cout << header << "\n";

    if (args.has("plan")) {
        std::ifstream in(args.str("plan"));
        if (!in) {
            std::cerr << "fuzz_campaign: cannot open "
                      << args.str("plan") << "\n";
            return 2;
        }
        std::stringstream ss;
        ss << in.rdbuf();
        std::string err;
        Json j = Json::parse(ss.str(), &err);
        if (!err.empty()) {
            // Exit 4: malformed file, same convention as --replay
            // artifacts (2 = cannot open).
            std::cerr << "fuzz_campaign: " << args.str("plan")
                      << ": bad JSON: " << err << "\n";
            return 4;
        }
        if (std::string why = faultPlanParseError(j); !why.empty()) {
            // An unknown fault-kind string is rejected by name here
            // rather than silently defaulting to some other kind.
            std::cerr << "fuzz_campaign: " << args.str("plan") << ": "
                      << why << "\n";
            return 4;
        }
        if (!faultPlanFromJson(j, cfg.plan)) {
            std::cerr << "fuzz_campaign: " << args.str("plan")
                      << ": fault plan does not parse\n";
            return 4;
        }
    }

    RunResult res = runOnce(cfg);
    printResult(cfg, res);
    return res.failed() ? 1 : 0;
}

int
campaign(Args &args, const std::string &header)
{
    CampaignOptions opt;
    opt.seed = args.num("campaign-seed", opt.seed);
    opt.runs = args.num("runs", opt.runs);
    opt.timeBudgetSeconds = args.num("time-budget-s", 0.0);
    opt.shrink = !args.has("no-shrink");
    opt.maxShrinkRuns = args.num("max-shrink-runs", opt.maxShrinkRuns);
    opt.outDir = args.str("out-dir", opt.outDir);
    opt.plantUnsafeDropReply = args.has("plant-bug");
    opt.log = [](const std::string &m) { std::cout << m << "\n"; };

    opt.isolate = !args.has("no-isolate");
    opt.limits.wallSeconds = args.num("deadline-s", 300.0);
    opt.limits.heartbeatSeconds = args.num("heartbeat-s", 30.0);
    opt.limits.rssBytes =
        args.num("rss-mb", std::uint64_t{4096}) * (1ull << 20);
    if (!args.has("no-journal"))
        opt.journalPath =
            args.str("journal", opt.outDir + "/journal.jsonl");
    opt.resume = args.has("resume");
    opt.stopRequested = [] {
        return run::GracefulShutdown::requested();
    };
    if (args.has("plant-crash-at")) {
        // Harness self-test: kill case N with an abort and prove the
        // campaign triages it and carries on.
        const unsigned at = args.num("plant-crash-at", 0u);
        opt.preRun = [at](unsigned i) {
            if (i == at)
                __builtin_trap();
        };
    }
    if (!args.error.empty())
        return usageError(args.error);
    if (opt.runs == 0)
        return usageError("--runs must be > 0");
    std::cout << header << "\n";

    run::GracefulShutdown::install();

    std::cout << "fuzz_campaign: seed=" << opt.seed
              << " runs=" << opt.runs << " rev=" << run::gitRevision()
              << (opt.isolate ? " isolate=on" : " isolate=off")
              << (opt.journalPath.empty()
                      ? std::string{}
                      : " journal=" + opt.journalPath)
              << "\n";
    CampaignSummary sum = runCampaign(opt);
    if (!sum.error.empty()) {
        std::cerr << "fuzz_campaign: " << sum.error << "\n";
        return 2;
    }
    std::cout << "campaign: " << sum.runsDone << " run(s)";
    if (sum.skipped > 0)
        std::cout << ", " << sum.skipped << " resumed from journal";
    std::cout << ", " << sum.failures << " failure(s)";
    if (sum.crashes > 0)
        std::cout << ", " << sum.crashes << " crashed worker(s)";
    if (!sum.artifacts.empty())
        std::cout << ", artifacts in " << opt.outDir;
    std::cout << "\ncampaign-hash: 0x" << std::hex << sum.campaignHash
              << std::dec << "\n";
    if (sum.interrupted) {
        std::cout << "interrupted: journal is resumable with --resume\n";
        return run::GracefulShutdown::exitCode();
    }
    return sum.failures > 0 || sum.crashes > 0 ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    run::installCrashHandler("fuzz_campaign");

    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a.rfind("--", 0) != 0)
            return usage();
        a = a.substr(2);
        auto eq = a.find('=');
        if (eq == std::string::npos)
            args.kv.emplace(a, "");
        else
            args.kv.emplace(a.substr(0, eq), a.substr(eq + 1));
    }
    if (args.has("help"))
        return usage();

    const bool replaying = args.has("replay");
    const bool oneOffRun = !replaying && args.has("one-off");
    std::span<const std::string_view> takes = kCampaignFlags;
    if (replaying)
        takes = kReplayFlags;
    else if (oneOffRun)
        takes = kOneOffFlags;
    for (const auto &[k, v] : args.kv)
        if (std::find(takes.begin(), takes.end(), k) == takes.end())
            return usageError("unknown option: --" + k);

    const std::string header =
        run::provenanceHeader("fuzz_campaign", argc, argv);
    if (replaying)
        return replay(args, header);
    if (oneOffRun)
        return oneOff(args, header);
    return campaign(args, header);
}
