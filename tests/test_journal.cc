// Write-ahead job journal unit tests: the CRC32 framing (including
// the known-answer vector shared with tools/check_journal.py), torn
// tail truncation after a simulated kill -9, rejection of a record
// whose bytes rotted in place, replay idempotence (the property that
// makes recovery safe to re-run), and the lifecycle classification
// recoverPending() derives for the supervisor. Plus the atomic file
// replacement primitive everything durable is built on.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "common/log.h"
#include "common/serialize.h"
#include "service/job.h"
#include "service/journal.h"

namespace xloops {
namespace {

RunSpec
specimen(const std::string &kernel = "rgb2cmyk-uc")
{
    RunSpec s;
    s.kernel = kernel;
    s.config = "io+x";
    s.mode = "S";
    return s;
}

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + "/" + name;
}

std::string
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
writeAll(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
}

// ------------------------------------------------------------ primitives

TEST(Crc32, MatchesTheIeeeKnownAnswer)
{
    // The classic CRC-32 check vector — zlib.crc32(b"123456789")
    // gives the same value, which is what lets check_journal.py
    // verify journals from Python.
    EXPECT_EQ(crc32(std::string("123456789")), 0xCBF43926u);
    EXPECT_EQ(crc32(std::string("")), 0u);

    // Chaining via the seed equals one pass over the concatenation.
    const u32 whole = crc32(std::string("xloops-journal"));
    const u32 chained =
        crc32(std::string("journal"), crc32(std::string("xloops-")));
    EXPECT_EQ(chained, whole);
}

TEST(AtomicWriteFile, ReplacesContentCompletely)
{
    const std::string path = tmpPath("atomic_write.txt");
    atomicWriteFile(path, "first version\n");
    EXPECT_EQ(readAll(path), "first version\n");
    atomicWriteFile(path, "v2");
    EXPECT_EQ(readAll(path), "v2");

    // The temporary sibling must not survive a successful write.
    std::ifstream tmp(path + ".tmp." + std::to_string(::getpid()));
    EXPECT_FALSE(tmp.good());
}

// --------------------------------------------------------------- framing

TEST(Journal, RoundTripsRecordsThroughReplay)
{
    const std::string path = tmpPath("journal_roundtrip.jnl");
    writeAll(path, "");  // truncate any previous run's file
    {
        Journal j(path);
        const RunSpec spec = specimen();
        j.append(JournalEvent::Accepted, 1, "", 0, &spec, true);
        j.append(JournalEvent::Started, 1);
        j.append(JournalEvent::Attempt, 1, "", 1);
        j.append(JournalEvent::Completed, 1, "", 1, nullptr, true);
        EXPECT_EQ(j.recordsWritten(), 5u);  // + the open header
        EXPECT_GE(j.fsyncs(), 3u);          // open, accept, terminal
    }

    const JournalReplay replay = replayJournal(path);
    EXPECT_FALSE(replay.tornTail);
    ASSERT_EQ(replay.records.size(), 5u);
    EXPECT_EQ(replay.records[0].ev, JournalEvent::Open);
    EXPECT_EQ(replay.records[1].ev, JournalEvent::Accepted);
    EXPECT_EQ(replay.records[1].jobId, 1u);
    EXPECT_FALSE(replay.records[1].specJson.empty());
    EXPECT_EQ(replay.records[3].attempt, 1u);
    EXPECT_EQ(replay.records[4].ev, JournalEvent::Completed);

    // The embedded spec survives the round trip intact.
    const JournalRecovery rec = recoverPending(replay);
    EXPECT_TRUE(rec.pending.empty());
    EXPECT_EQ(rec.completed, 1u);
}

TEST(Journal, MissingFileIsAColdStart)
{
    const JournalReplay replay =
        replayJournal(tmpPath("no_such_journal.jnl"));
    EXPECT_TRUE(replay.records.empty());
    EXPECT_FALSE(replay.tornTail);
    EXPECT_TRUE(recoverPending(replay).pending.empty());
}

TEST(Journal, TornTailIsTruncatedNotFatal)
{
    const std::string path = tmpPath("journal_torn.jnl");
    writeAll(path, "");
    {
        Journal j(path);
        const RunSpec spec = specimen();
        j.append(JournalEvent::Accepted, 1, "", 0, &spec, true);
        j.append(JournalEvent::Completed, 1, "", 1, nullptr, true);
    }
    // kill -9 mid-append: the final record stops mid-line.
    {
        std::ofstream out(path, std::ios::app | std::ios::binary);
        out << "xj1 deadbeef {\"seq\":99,\"t_us\":1,\"ev\":\"acc";
    }

    const JournalReplay replay = replayJournal(path);
    EXPECT_TRUE(replay.tornTail);
    EXPECT_GT(replay.tornBytes, 0u);
    ASSERT_EQ(replay.records.size(), 3u)
        << "every record before the tear survives";
    EXPECT_TRUE(recoverPending(replay).pending.empty());
}

TEST(Journal, CrcCorruptedRecordStopsReplay)
{
    const std::string path = tmpPath("journal_rot.jnl");
    writeAll(path, "");
    {
        Journal j(path);
        const RunSpec spec = specimen();
        j.append(JournalEvent::Accepted, 1, "", 0, &spec, true);
        j.append(JournalEvent::Started, 1);
        j.append(JournalEvent::Completed, 1, "", 1, nullptr, true);
    }

    // Flip one payload byte of the Started record (line 3). Its CRC
    // no longer matches, so replay must stop *before* it — WAL
    // semantics: nothing after a bad record can be trusted.
    std::string text = readAll(path);
    size_t line = 0, seen = 0;
    for (size_t i = 0; i < text.size(); i++) {
        if (seen == 2 && text.compare(i, 9, "\"started\"") == 0) {
            text[i + 1] = 'X';
            line = i;
            break;
        }
        if (text[i] == '\n')
            seen++;
    }
    ASSERT_NE(line, 0u) << "test bug: started record not found";
    writeAll(path, text);

    const JournalReplay replay = replayJournal(path);
    EXPECT_TRUE(replay.tornTail);
    ASSERT_EQ(replay.records.size(), 2u)
        << "open + accepted survive; the rotten record and everything "
           "after it are dropped";

    // With the terminal record unreachable, the job is conservatively
    // pending again — at-least-once execution, never lost.
    const JournalRecovery rec = recoverPending(replay);
    ASSERT_EQ(rec.pending.size(), 1u);
    EXPECT_EQ(rec.pending[0].oldJobId, 1u);
}

// -------------------------------------------------------------- recovery

TEST(Journal, RecoveryClassifiesLifecycles)
{
    const std::string path = tmpPath("journal_classify.jnl");
    writeAll(path, "");
    {
        Journal j(path);
        const RunSpec a = specimen();
        const RunSpec b = specimen("sgemm-uc");
        const RunSpec c = specimen("ssearch-uc");
        const RunSpec d = specimen();
        // Job 1: accepted only — crashed before any worker took it.
        j.append(JournalEvent::Accepted, 1, "", 0, &a, true);
        // Job 2: mid-attempt (accepted, started, attempt 2).
        j.append(JournalEvent::Accepted, 2, "", 0, &b, true);
        j.append(JournalEvent::Started, 2);
        j.append(JournalEvent::Attempt, 2, "", 1);
        j.append(JournalEvent::Backoff, 2, "100ms", 1);
        j.append(JournalEvent::Attempt, 2, "", 2);
        // Job 3: finished — must NOT be recovered.
        j.append(JournalEvent::Accepted, 3, "", 0, &c, true);
        j.append(JournalEvent::Started, 3);
        j.append(JournalEvent::Completed, 3, "", 1, nullptr, true);
        // Job 4: shed at admission — terminal, not recovered.
        j.append(JournalEvent::Accepted, 4, "", 0, &d, true);
        j.append(JournalEvent::Shed, 4, "queue full", 0, nullptr, true);
    }

    const JournalReplay replay = replayJournal(path);
    const JournalRecovery rec = recoverPending(replay);
    ASSERT_EQ(rec.pending.size(), 2u);
    EXPECT_EQ(rec.completed, 1u);
    EXPECT_EQ(rec.shed, 1u);

    EXPECT_EQ(rec.pending[0].oldJobId, 1u);
    EXPECT_FALSE(rec.pending[0].started);
    EXPECT_EQ(rec.pending[0].attempts, 0u);
    EXPECT_EQ(rec.pending[0].spec.kernel, "rgb2cmyk-uc");

    EXPECT_EQ(rec.pending[1].oldJobId, 2u);
    EXPECT_TRUE(rec.pending[1].started);
    EXPECT_EQ(rec.pending[1].attempts, 2u);
    EXPECT_EQ(rec.pending[1].spec.kernel, "sgemm-uc");
}

TEST(Journal, ReplayIsIdempotent)
{
    const std::string path = tmpPath("journal_idem.jnl");
    writeAll(path, "");
    {
        Journal j(path);
        const RunSpec a = specimen();
        const RunSpec b = specimen("sgemm-uc");
        j.append(JournalEvent::Accepted, 1, "", 0, &a, true);
        j.append(JournalEvent::Started, 1);
        j.append(JournalEvent::Accepted, 2, "", 0, &b, true);
        j.append(JournalEvent::Failed, 1, "watchdog", 3, nullptr, true);
    }

    // Replaying twice (a recovery that itself crashed and re-ran)
    // must derive the identical pending set — recovery is a pure
    // function of the on-disk bytes, with no hidden state.
    const JournalRecovery r1 = recoverPending(replayJournal(path));
    const JournalRecovery r2 = recoverPending(replayJournal(path));
    ASSERT_EQ(r1.pending.size(), 1u);
    ASSERT_EQ(r2.pending.size(), r1.pending.size());
    EXPECT_EQ(r1.pending[0].oldJobId, r2.pending[0].oldJobId);
    EXPECT_EQ(r1.pending[0].started, r2.pending[0].started);
    EXPECT_EQ(r1.pending[0].attempts, r2.pending[0].attempts);
    EXPECT_EQ(r1.pending[0].spec.kernel, r2.pending[0].spec.kernel);
    EXPECT_EQ(r1.failed, r2.failed);
}

} // namespace
} // namespace xloops
