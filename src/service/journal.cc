#include "service/journal.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include <fcntl.h>
#include <unistd.h>

#include "common/json.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/serialize.h"

namespace xloops {

namespace {

constexpr const char *journalSchema = "xloops-journal-1";
constexpr const char *journalMagic = "xj1";

} // namespace

const char *
journalEventName(JournalEvent ev)
{
    switch (ev) {
      case JournalEvent::Open: return "open";
      case JournalEvent::Accepted: return "accepted";
      case JournalEvent::Started: return "started";
      case JournalEvent::Attempt: return "attempt";
      case JournalEvent::Backoff: return "backoff";
      case JournalEvent::Completed: return "completed";
      case JournalEvent::Failed: return "failed";
      case JournalEvent::Shed: return "shed";
      case JournalEvent::Cancelled: return "cancelled";
      case JournalEvent::Recovered: return "recovered";
    }
    return "?";
}

namespace {

bool
journalEventFromName(const std::string &name, JournalEvent &ev)
{
    static const std::unordered_map<std::string, JournalEvent> names = {
        { "open", JournalEvent::Open },
        { "accepted", JournalEvent::Accepted },
        { "started", JournalEvent::Started },
        { "attempt", JournalEvent::Attempt },
        { "backoff", JournalEvent::Backoff },
        { "completed", JournalEvent::Completed },
        { "failed", JournalEvent::Failed },
        { "shed", JournalEvent::Shed },
        { "cancelled", JournalEvent::Cancelled },
        { "recovered", JournalEvent::Recovered },
    };
    const auto it = names.find(name);
    if (it == names.end())
        return false;
    ev = it->second;
    return true;
}

/** The compact JSON payload of one record (the CRC's exact input). */
std::string
encodeRecord(u64 seq, JournalEvent ev, u64 jobId, const std::string &detail,
             u64 attempt, const RunSpec *spec)
{
    std::ostringstream os;
    JsonWriter w(os, /*pretty=*/false);
    w.beginObject();
    w.field("seq", seq);
    w.field("t_us", monotonicUs());
    w.field("ev", journalEventName(ev));
    if (ev == JournalEvent::Open) {
        w.field("schema", journalSchema);
    } else {
        w.field("job", jobId);
        if (attempt)
            w.field("attempt", attempt);
        if (!detail.empty())
            w.field("detail", detail);
        if (spec) {
            w.key("spec");
            w.beginObject();
            spec->toJson(w);
            w.endObject();
        }
    }
    w.endObject();
    return os.str();
}

/** Frame @p payload as one journal line. */
std::string
frameRecord(const std::string &payload)
{
    char crcHex[16];
    std::snprintf(crcHex, sizeof crcHex, "%08x", crc32(payload));
    std::string line = journalMagic;
    line += ' ';
    line += crcHex;
    line += ' ';
    line += payload;
    line += '\n';
    return line;
}

} // namespace

Journal::Journal(const std::string &path) : filePath(path)
{
    fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd < 0)
        fatal(strf("cannot open journal ", path, ": ",
                   std::strerror(errno)));
    append(JournalEvent::Open, 0, "", 0, nullptr, /*sync=*/true);
}

Journal::~Journal()
{
    std::lock_guard<std::mutex> lock(m);
    if (fd >= 0) {
        ::fsync(fd);
        ::close(fd);
        fd = -1;
    }
}

void
Journal::append(JournalEvent ev, u64 jobId, const std::string &detail,
                u64 attempt, const RunSpec *spec, bool sync)
{
    std::lock_guard<std::mutex> lock(m);
    if (fd < 0)
        return;
    const std::string line =
        frameRecord(encodeRecord(++seq, ev, jobId, detail, attempt, spec));

    // One write() per record: O_APPEND makes the whole line land as a
    // unit, so concurrent appenders never interleave and a crash tears
    // at most the final record.
    size_t off = 0;
    while (off < line.size()) {
        const ssize_t n = ::write(fd, line.data() + off, line.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (!writeFailed) {
                writeFailed = true;
                warn(strf("journal write to ", filePath, " failed: ",
                          std::strerror(errno),
                          " (durability degraded; will not repeat)"));
            }
            return;
        }
        off += static_cast<size_t>(n);
    }
    if (sync) {
        ::fsync(fd);
        syncCount++;
    }
    metricsRegistry().counter("xloops_journal_records_total").inc();
}

u64
Journal::recordsWritten() const
{
    std::lock_guard<std::mutex> lock(m);
    return seq;
}

u64
Journal::fsyncs() const
{
    std::lock_guard<std::mutex> lock(m);
    return syncCount;
}

namespace {

/** Parse one framed line into @p rec; false on any violation. */
bool
parseRecord(const std::string &line, JournalRecord &rec)
{
    // "xj1 <8-hex> <json>" — fixed prefix widths keep this cheap.
    if (line.size() < 14 || line.compare(0, 4, "xj1 ") != 0 ||
        line[12] != ' ')
        return false;
    const std::string crcHex = line.substr(4, 8);
    u32 wantCrc = 0;
    for (const char c : crcHex) {
        unsigned digit;
        if (c >= '0' && c <= '9')
            digit = static_cast<unsigned>(c - '0');
        else if (c >= 'a' && c <= 'f')
            digit = static_cast<unsigned>(c - 'a' + 10);
        else
            return false;
        wantCrc = (wantCrc << 4) | digit;
    }
    const std::string payload = line.substr(13);
    if (crc32(payload) != wantCrc)
        return false;

    try {
        const JsonValue v = jsonParse(payload);
        rec = JournalRecord{};
        rec.seq = v.at("seq").asU64();
        rec.atUs = v.at("t_us").asU64();
        if (!journalEventFromName(v.at("ev").asString(), rec.ev))
            return false;
        if (rec.ev == JournalEvent::Open)
            return v.at("schema").asString() == journalSchema;
        rec.jobId = v.at("job").asU64();
        rec.attempt = v.getU64("attempt", 0);
        if (v.has("detail"))
            rec.detail = v.at("detail").asString();
        if (v.has("spec")) {
            // Round-trip through the codec to validate the embedded
            // spec now, while we can still treat it as tail damage —
            // recovery must never throw on a replayed document.
            const JsonValue &spec = v.at("spec");
            runSpecFromJson(spec);
            std::ostringstream os;
            JsonWriter w(os, /*pretty=*/false);
            writeJsonValue(w, spec);
            rec.specJson = os.str();
        }
        return true;
    } catch (const FatalError &) {
        return false;
    }
}

} // namespace

JournalReplay
replayJournal(const std::string &path)
{
    JournalReplay out;
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return out;  // missing journal = cold start

    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();

    size_t pos = 0;
    u64 lastSeq = 0;
    while (pos < text.size()) {
        const size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            break;  // no terminator: torn final line
        JournalRecord rec;
        if (!parseRecord(text.substr(pos, eol - pos), rec))
            break;  // bad frame/CRC/schema: treat the rest as lost tail
        if (rec.seq <= lastSeq && lastSeq != 0)
            break;  // sequence went backwards: the rest is untrustworthy
        lastSeq = rec.seq;
        out.records.push_back(std::move(rec));
        pos = eol + 1;
    }
    if (pos < text.size()) {
        out.tornTail = true;
        out.tornBytes = text.size() - pos;
    }
    return out;
}

JournalRecovery
recoverPending(const JournalReplay &replay)
{
    JournalRecovery out;

    // jobId -> index into out.pending while the job is still live.
    std::unordered_map<u64, size_t> live;

    for (const JournalRecord &rec : replay.records) {
        switch (rec.ev) {
          case JournalEvent::Open:
          case JournalEvent::Recovered:
            break;
          case JournalEvent::Accepted: {
            if (rec.specJson.empty() || live.count(rec.jobId))
                break;  // malformed or duplicate accept: ignore
            RecoveredJob job;
            job.spec = runSpecFromJson(jsonParse(rec.specJson));
            job.oldJobId = rec.jobId;
            live[rec.jobId] = out.pending.size();
            out.pending.push_back(std::move(job));
            break;
          }
          case JournalEvent::Started: {
            const auto it = live.find(rec.jobId);
            if (it != live.end())
                out.pending[it->second].started = true;
            break;
          }
          case JournalEvent::Attempt: {
            const auto it = live.find(rec.jobId);
            if (it != live.end()) {
                RecoveredJob &job = out.pending[it->second];
                if (rec.attempt > job.attempts)
                    job.attempts = rec.attempt;
            }
            break;
          }
          case JournalEvent::Backoff:
            break;
          case JournalEvent::Completed:
          case JournalEvent::Failed:
          case JournalEvent::Shed:
          case JournalEvent::Cancelled: {
            const auto it = live.find(rec.jobId);
            if (it == live.end())
                break;
            // Compact: move the last live pending slot into the hole.
            const size_t hole = it->second;
            live.erase(it);
            const size_t last = out.pending.size() - 1;
            if (hole != last) {
                out.pending[hole] = std::move(out.pending[last]);
                live[out.pending[hole].oldJobId] = hole;
            }
            out.pending.pop_back();
            switch (rec.ev) {
              case JournalEvent::Completed: out.completed++; break;
              case JournalEvent::Failed: out.failed++; break;
              case JournalEvent::Shed: out.shed++; break;
              default: out.cancelled++; break;
            }
            break;
          }
        }
    }

    // The compaction above disturbs acceptance order; recovery should
    // re-enqueue oldest-first so FIFO fairness survives the crash.
    std::sort(out.pending.begin(), out.pending.end(),
              [](const RecoveredJob &a, const RecoveredJob &b) {
                  return a.oldJobId < b.oldJobId;
              });
    return out;
}

} // namespace xloops
