/**
 * @file
 * Write-ahead job journal for the simulation service — the daemon's
 * crash-durability backbone.
 *
 * Every acknowledged job's lifecycle is recorded as an append-only
 * sequence of CRC32-framed records:
 *
 *   accepted -> started -> attempt/backoff* -> completed|failed|
 *                                              cancelled
 *   accepted -> shed                 (admission control refused it)
 *
 * The journal is fsync'd at the two points that define the durability
 * contract: `accepted` (before the client can observe the admission,
 * so an acknowledged job is never forgotten) and every terminal event
 * (so a finished job is never re-run on recovery). Intermediate
 * records (`started`, `attempt`, `backoff`) ride along unsynced —
 * losing them only costs recovery a little precision, never a job.
 *
 * On-disk format ("xloops-journal-1"): one record per line,
 *
 *   xj1 <crc32-hex8> <compact-json>\n
 *
 * where the CRC covers exactly the JSON payload bytes. The first
 * record is an `open` header naming the schema. A process killed
 * mid-append leaves at most one torn final line; replayJournal()
 * truncates parsing at the first unparseable or CRC-failing record
 * (standard WAL torn-tail semantics) and reports how many bytes it
 * ignored. tools/check_journal.py validates the same format offline.
 *
 * Recovery is a pure function of the replayed records
 * (recoverPending), so replaying twice yields the same pending set —
 * the idempotence tests/test_journal.cc pins down.
 */

#ifndef XLOOPS_SERVICE_JOURNAL_H
#define XLOOPS_SERVICE_JOURNAL_H

#include <mutex>
#include <string>
#include <vector>

#include "common/types.h"
#include "service/job.h"

namespace xloops {

/** What a journal record says happened. */
enum class JournalEvent : u8 {
    Open,       ///< journal header (schema, generation)
    Accepted,   ///< job validated and admitted (spec embedded; fsync)
    Started,    ///< a worker picked the job up
    Attempt,    ///< run attempt N began
    Backoff,    ///< retryable failure; backoff wait before re-run
    Completed,  ///< terminal: done (fsync)
    Failed,     ///< terminal: failed (fsync)
    Shed,       ///< terminal: refused by admission control (fsync)
    Cancelled,  ///< terminal: cancelled (fsync)
    Recovered,  ///< this accepted record was carried over by recovery
};

const char *journalEventName(JournalEvent ev);

/** One replayed record. */
struct JournalRecord
{
    u64 seq = 0;        ///< strictly increasing per journal
    u64 atUs = 0;       ///< monotonicUs() at append
    JournalEvent ev = JournalEvent::Open;
    u64 jobId = 0;      ///< 0 for the header
    u64 attempt = 0;    ///< attempt number (Attempt/Backoff)
    std::string detail; ///< small context: error kind, backoff ms, ...
    std::string specJson;  ///< compact RunSpec document (Accepted)
};

/**
 * Append-only journal writer. Thread-safe: append() serializes one
 * record under a mutex, writes the framed line with a single write(),
 * and fsyncs when @p sync is set.
 */
class Journal
{
  public:
    /**
     * Open @p path for appending and write the `open` header record
     * (fsync'd). The file is created if missing; an existing file is
     * appended to, so the caller replays + rotates first (see
     * Supervisor recovery). Throws FatalError on I/O errors.
     */
    explicit Journal(const std::string &path);

    ~Journal();

    Journal(const Journal &) = delete;
    Journal &operator=(const Journal &) = delete;

    /** Append one record; @p spec is embedded for Accepted records.
     *  @p sync forces fsync (accept + terminal events). I/O failures
     *  are reported via warn() once, never thrown — a full disk must
     *  degrade durability, not kill the daemon. */
    void append(JournalEvent ev, u64 jobId, const std::string &detail = "",
                u64 attempt = 0, const RunSpec *spec = nullptr,
                bool sync = false);

    const std::string &path() const { return filePath; }
    u64 recordsWritten() const;
    u64 fsyncs() const;

  private:
    mutable std::mutex m;
    std::string filePath;
    int fd = -1;
    u64 seq = 0;
    u64 syncCount = 0;
    bool writeFailed = false;  ///< warn once, then stay quiet
};

/** What replayJournal() found on disk. */
struct JournalReplay
{
    std::vector<JournalRecord> records;  ///< every valid record, in order

    /** True when trailing bytes were ignored: a torn final line from
     *  a crash mid-append, or a CRC-failing record (parsing stops at
     *  the first bad record — later lines are unreachable, exactly
     *  like a WAL whose tail was lost). */
    bool tornTail = false;
    u64 tornBytes = 0;  ///< how many bytes were ignored
};

/** Parse @p path. A missing file is a cold start (empty replay, not
 *  an error); a malformed tail is truncated, never fatal. */
JournalReplay replayJournal(const std::string &path);

/** One journaled job recovery must re-run. */
struct RecoveredJob
{
    RunSpec spec;
    u64 oldJobId = 0;      ///< id in the previous daemon generation
    u64 attempts = 0;      ///< attempts the dead daemon had made
    bool started = false;  ///< a worker had picked it up
};

/** Replay digest: the pending set plus how the finished jobs ended. */
struct JournalRecovery
{
    std::vector<RecoveredJob> pending;  ///< accepted, never terminal
    u64 completed = 0;
    u64 failed = 0;
    u64 cancelled = 0;
    u64 shed = 0;
};

/** Derive the recovery state. Pure: calling it twice on the same
 *  replay yields identical results (replay idempotence). */
JournalRecovery recoverPending(const JournalReplay &replay);

} // namespace xloops

#endif // XLOOPS_SERVICE_JOURNAL_H
