/**
 * @file
 * Chaos-campaign engine: seeded fault-fuzzing of the coherence
 * protocol, self-contained repro artifacts, and automatic repro
 * shrinking.
 *
 * A *campaign* generates seeded (topology x workload x fault-plan)
 * combinations and runs each one under the CoherenceChecker and the
 * random tester's golden-value oracle. Every run is fully described
 * by a RunConfig, which serializes to JSON; the simulator is
 * deterministic, so a RunConfig plus the binary is a complete repro —
 * replayability is checked via a run-result hash ("same seed => same
 * run").
 *
 * When a run fails (invariant violation, oracle miss, stall, or drain
 * timeout), the engine writes the config + result as an artifact and
 * then *shrinks* it: probabilistic fault specs are first frozen into
 * explicit k-th-op schedules (using the injector's fired-match
 * counters), then delta-debugging removes faults, lowers the per-node
 * op count and drops tester nodes — re-verifying after every accepted
 * step that the reduced config still fails the same way,
 * deterministically (two runs, identical hash). The result is a
 * minimal explicit-schedule repro a human can actually read.
 *
 * The planted-bug test drives this end to end: an `unsafe` DropReply
 * spec (deliberately outside the protocol's recoverable-fault model)
 * is planted, the campaign finds it, and the shrinker reduces it to a
 * handful of ops and at most a couple of faults.
 */

#ifndef MCUBE_FUZZ_CAMPAIGN_HH
#define MCUBE_FUZZ_CAMPAIGN_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fault/fault_injector.hh"
#include "proc/random_tester.hh"
#include "run/supervisor.hh"
#include "sim/json.hh"
#include "sim/types.hh"

namespace mcube::fuzz
{

/** Complete, serializable configuration of one fuzzed run. */
struct RunConfig
{
    unsigned n = 4;                    //!< grid edge (N = n^2 nodes)
    std::uint64_t sysSeed = 1;
    Tick requestTimeoutTicks = 500'000;  //!< watchdog (0 = disabled)
    unsigned cacheSets = 64;
    unsigned cacheWays = 4;
    unsigned mltSets = 64;
    unsigned mltWays = 4;
    std::uint64_t fullCheckInterval = 64;
    Tick maxTicks = 3'000'000'000ull;  //!< stall budget
    Tick drainTicks = 1'000'000'000ull;
    /** Snoop fast-reject filter (pure simulator optimisation; the
     *  result hash must be bit-identical either way). */
    bool snoopFilter = true;
    RandomTesterParams tester{};
    FaultPlan plan{};
};

/** @{ JSON round-tripping of a run configuration. */
Json toJson(const RunConfig &cfg);
bool runConfigFromJson(const Json &j, RunConfig &out);
/** @} */

/** Why a run counts as failed. */
enum class FailureKind : std::uint8_t
{
    None,              //!< completed cleanly
    CheckerViolation,  //!< a coherence invariant broke
    OracleFailure,     //!< a read returned a never-golden value
    Stall,             //!< tester did not finish within maxTicks
    DrainTimeout,      //!< finished but the system would not drain
};

const char *toString(FailureKind kind);
bool failureKindFromString(const std::string &name, FailureKind &out);

/** Everything observed about one run. */
struct RunResult
{
    bool finished = false;
    bool drained = false;
    std::uint64_t violations = 0;
    std::uint64_t readFailures = 0;
    std::uint64_t injections = 0;
    std::uint64_t opsIssued = 0;
    std::uint64_t busOps = 0;
    Tick endTick = 0;
    /** Whole-run fingerprint (tester hash + system counters). */
    std::uint64_t hash = 0;
    FailureKind failure = FailureKind::None;
    /** First few checker/oracle failure descriptions. */
    std::vector<std::string> report;
    /** Per-spec match indices where the injector fired (freezing). */
    std::vector<std::vector<std::uint64_t>> firedMatches;

    bool failed() const { return failure != FailureKind::None; }
};

/** @{ JSON round-tripping of a run result (fired-match schedules
 *  included), the payload a supervised worker hands back. */
Json toJson(const RunResult &res);
bool runResultFromJson(const Json &j, RunResult &out);
/** @} */

/**
 * Build the system described by @p cfg and run it to completion
 * (with early exit as soon as a violation or oracle miss appears).
 *
 * When @p heartbeat is non-null the run reports liveness through it:
 * a ProgressMonitor beats whenever a transaction completed since its
 * last check (or nothing is outstanding), so a supervising parent
 * can distinguish a slow run from a livelocked one. The monitor is
 * observation-only — the result (hash included) is bit-identical
 * with or without a heartbeat attached.
 */
RunResult runOnce(const RunConfig &cfg,
                  const run::Heartbeat *heartbeat = nullptr);

/**
 * Freeze every probabilistic spec of @p cfg into an explicit
 * atMatches schedule reproducing exactly the injections @p observed
 * recorded. Specs already scheduled are pruned to the entries that
 * actually fired.
 */
RunConfig freezeSchedules(const RunConfig &cfg,
                          const RunResult &observed);

/** Outcome of shrinking one failing config. */
struct ShrinkResult
{
    RunConfig config;   //!< minimal failing config, explicit schedules
    RunResult result;   //!< result of the minimal config
    unsigned runsUsed = 0;
    /** True iff every accepted step re-ran twice with equal hashes. */
    bool deterministic = false;
    std::vector<std::string> steps;  //!< accepted-reduction log
};

/**
 * Delta-debug @p failing down to a minimal config that still fails
 * with the same FailureKind. Each accepted reduction is verified by
 * running the candidate twice (identical hash both times). @p maxRuns
 * bounds the total number of simulations.
 */
ShrinkResult shrinkRepro(const RunConfig &failing,
                         unsigned maxRuns = 400,
                         const std::function<void(const std::string &)>
                             &log = {});

/** @{ Self-contained repro artifact: config + result + git rev. */
Json artifactJson(const RunConfig &cfg, const RunResult &res,
                  const std::string &note = "");

/**
 * Validate @p j as a repro artifact before trusting any field.
 * Returns "" when usable, otherwise a message that distinguishes the
 * failure shapes a replayer must tell apart: not an object / missing
 * or mismatched format version / unusable config. Corrupt and
 * version-skewed artifacts thus fail loudly and distinctly instead
 * of replaying garbage.
 */
std::string artifactParseError(const Json &j);

/** Parse an artifact (artifactParseError must pass). A crash
 *  artifact carries no result: @p expectedHash stays 0 ("no recorded
 *  expectation") and @p expectedFailure None. */
bool artifactFromJson(const Json &j, RunConfig &cfg,
                      std::uint64_t &expectedHash,
                      FailureKind &expectedFailure);
/** @} */

/**
 * Crash artifact: written when a supervised worker died (signal,
 * OOM, deadline) instead of returning a result. Same format= and
 * config= shape as a failure artifact — replayable with
 * `fuzz_campaign --replay` (expect to reproduce the crash!) — plus
 * the supervisor's triage verdict.
 */
Json crashArtifactJson(const RunConfig &cfg,
                       const run::WorkerOutcome &outcome,
                       const std::string &note = "");

/** Knobs of a whole campaign. */
struct CampaignOptions
{
    std::uint64_t seed = 1;
    unsigned runs = 50;
    /** Stop starting new runs after this much wall time (0 = off). */
    double timeBudgetSeconds = 0.0;
    bool shrink = true;
    unsigned maxShrinkRuns = 400;
    std::string outDir = "fuzz_artifacts";
    /**
     * Plant a deliberately ineligible (unsafe) DropReply spec in every
     * generated plan — the end-to-end harness check: the campaign must
     * find it and the shrinker must reduce it.
     */
    bool plantUnsafeDropReply = false;
    /** Progress sink (one line per event); empty = silent. */
    std::function<void(const std::string &)> log{};

    /**
     * Run every case in a forked, resource-limited worker process
     * (run::Supervisor): a crashing / OOMing / wedged case is triaged
     * and becomes a replayable crash artifact instead of killing the
     * campaign. Ignored (inline execution) where fork is unavailable.
     * Results are hash-identical either way.
     */
    bool isolate = false;
    /** Per-case limits when isolating (0 disables each). */
    run::WorkerLimits limits{};
    /**
     * Append-only fsync'd JSONL journal of completed cases (empty =
     * no journal). Keyed by (seed, runs, plant flag, git rev); a
     * journal written by a different campaign refuses to resume.
     */
    std::string journalPath;
    /**
     * Skip cases the journal already records, merging their hashes
     * and failure counts into the summary — the union of an
     * interrupted + resumed campaign is identical to an uninterrupted
     * one (compare campaignHash). Without resume an existing journal
     * file is replaced.
     */
    bool resume = false;
    /** Test hook: runs right before case @p i, inside the forked
     *  child when isolating — how the tests plant a crash. */
    std::function<void(unsigned)> preRun{};
    /** Polled between cases; once true the campaign drains
     *  gracefully: no new case starts, in-flight cases finish (or hit
     *  their deadline), the journal stays valid for --resume. */
    std::function<bool()> stopRequested{};
};

/** Derive run @p runIndex of campaign @p campaignSeed. The mapping is
 *  pure: the same (seed, index) always yields the same config. */
RunConfig randomConfig(std::uint64_t campaignSeed, unsigned runIndex,
                       bool plantUnsafeDropReply = false);

/** What a campaign did. */
struct CampaignSummary
{
    unsigned runsDone = 0;  //!< cases executed in this invocation
    unsigned failures = 0;  //!< failing cases (journaled ones included)
    unsigned skipped = 0;   //!< journaled cases not re-run (resume)
    unsigned crashes = 0;   //!< abnormal worker deaths, triaged
    bool interrupted = false;  //!< stopRequested drained the campaign
    /**
     * Fingerprint over (case index, result hash) in index order,
     * journaled and fresh cases alike. Case results are pure in
     * (seed, index), so an interrupted+resumed campaign must produce
     * the same campaignHash as an uninterrupted one — the resume
     * determinism contract, checked by tests and CI.
     */
    std::uint64_t campaignHash = 0;
    std::string error;  //!< campaign-level fatal error ("" = none)
    std::vector<std::string> artifacts;  //!< files written (see outDir)
};

/** Run a campaign; failing runs write (and shrink) repro artifacts. */
CampaignSummary runCampaign(const CampaignOptions &opt);

} // namespace mcube::fuzz

#endif // MCUBE_FUZZ_CAMPAIGN_HH
