/**
 * @file
 * Append-only, fsync'd JSONL journal of completed work items.
 *
 * Long fuzz campaigns lose hours of finished work when the process
 * dies; the journal makes completed items durable so a restarted run
 * can skip them. The format is built for crash-survival, not
 * elegance:
 *
 *  - one JSON object per line, appended with O_APPEND and fsync'd, so
 *    a line is either fully on disk or absent — a torn final line
 *    (power cut mid-write) is detected and skipped on reload;
 *  - the first line is a header carrying a 64-bit campaign key
 *    (hash of the effective configuration + git revision): a journal
 *    can only resume the exact run shape that wrote it, so "resume"
 *    can never silently mix results from two different campaigns or
 *    binaries;
 *  - a footer line is appended on graceful shutdown; it is advisory
 *    (a journal without one is still valid — that is the whole
 *    point), but lets tooling distinguish "drained cleanly" from
 *    "died mid-run".
 *
 * The fuzz campaign's determinism contract (same seed + index =>
 * bit-identical result) is what makes journal-based resume sound: an
 * item's journaled record equals what re-running it would produce,
 * so interrupted + resumed == uninterrupted.
 */

#ifndef MCUBE_RUN_WORK_JOURNAL_HH
#define MCUBE_RUN_WORK_JOURNAL_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "sim/json.hh"

namespace mcube::run
{

/** Durable record of which items of one campaign are done. */
class WorkJournal
{
  public:
    WorkJournal() = default;
    ~WorkJournal();

    WorkJournal(const WorkJournal &) = delete;
    WorkJournal &operator=(const WorkJournal &) = delete;

    /**
     * Open (creating or resuming) the journal at @p path.
     *
     * If the file already exists its header key must equal
     * @p campaignKey; on mismatch the open fails — a journal from a
     * different configuration or binary must never feed a resume.
     * Existing well-formed entry lines are loaded (a torn trailing
     * line is neutralized and skipped); @p header is written only
     * when the file is fresh.
     *
     * @return false (with a message in @p err) on I/O failure or key
     *         mismatch.
     */
    bool open(const std::string &path, std::uint64_t campaignKey,
              const Json &header, std::string *err = nullptr);

    bool isOpen() const { return fd >= 0; }
    const std::string &path() const { return _path; }

    /** True if @p item was loaded or recorded. */
    bool has(const std::string &item) const;

    /** The journaled record of @p item, or nullptr. */
    const Json *find(const std::string &item) const;

    /** Items known complete (loaded + recorded). */
    std::size_t completed() const;

    /** Entries loaded from disk by open() (i.e. resumable work). */
    std::size_t loaded() const { return _loaded; }

    /**
     * Durably append @p record for @p item: one JSONL line, fsync'd
     * before returning. Thread-safe. @return false on write
     * failure.
     */
    bool record(const std::string &item, Json record);

    /** Append the advisory footer and close the file. Idempotent. */
    void finish();

    /** Close without a footer (what a crash looks like; for tests). */
    void abandon();

    /** Hash a canonical configuration string into a campaign key. */
    static std::uint64_t keyOf(const std::string &canonicalConfig);

  private:
    bool writeLine(const std::string &line);

    mutable std::mutex lock;
    int fd = -1;
    std::string _path;
    std::size_t _loaded = 0;
    std::map<std::string, Json> entries;
};

} // namespace mcube::run

#endif // MCUBE_RUN_WORK_JOURNAL_HH
