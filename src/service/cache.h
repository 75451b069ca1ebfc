/**
 * @file
 * Content-addressed result cache for the simulation service.
 *
 * A cell simulated once is never simulated again: results are keyed
 * by everything that can change the canonical "xloops-stats-1"
 * document — the program-image hash (the assembled binary, so edits
 * to a kernel or the assembler naturally miss), the kernel name (whose
 * input setup the image does not cover), the configuration and
 * mode, the valves, and the fault seed/rates (bit-exact via their
 * IEEE-754 patterns). Because the simulator is deterministic, a hit
 * is *byte-identical* to what a cold run would have produced — the
 * cache stores the exact serialized document and serves it verbatim
 * (the service soak in CI diffs hit against cold to enforce this).
 *
 * Only first-attempt results are cached: a retry re-derives its fault
 * seed (see service/supervisor.h), so its stats describe a different
 * schedule than the key's.
 *
 * Integrity: every entry carries the CRC-32 of its text, computed at
 * insert and re-verified on each lookup and on index load. A failed
 * check can therefore never serve a wrong answer — the entry is
 * quarantined (written to the quarantine directory for forensics),
 * dropped, counted, reported through the corruption hook, and the
 * lookup degrades to a miss so the supervisor transparently
 * re-simulates.
 *
 * The index persists across daemon restarts as an "xloops-cache-1"
 * JSON document (saved on graceful drain, loaded at startup) via
 * atomicWriteFile, so a crash mid-save leaves the previous complete
 * index, never a torn file. Loading tolerates damage instead of
 * refusing to start: an unparseable index is quarantined wholesale
 * and treated as a cold start.
 */

#ifndef XLOOPS_SERVICE_CACHE_H
#define XLOOPS_SERVICE_CACHE_H

#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>

#include "common/types.h"

namespace xloops {

struct RunSpec;

/** The cache key of a (program image, kernel, config, seed) cell. */
u64 resultCacheKey(u64 programHash, const RunSpec &spec);

/** Thread-safe bounded result cache with FIFO eviction. */
class ResultCache
{
  public:
    explicit ResultCache(size_t max_entries = 4096);

    /** True (and fills @p resultJson verbatim) on a hit. An entry
     *  whose checksum fails is quarantined and reported as a miss. */
    bool lookup(u64 key, std::string &resultJson);

    /** Insert/overwrite; evicts the oldest entry when full. */
    void insert(u64 key, const std::string &resultJson);

    u64 hits() const;
    u64 misses() const;
    u64 evictions() const;
    size_t size() const;

    /** Total bytes of cached result text currently held. */
    u64 bytes() const;

    /** Entries dropped for failing their content checksum (lookup or
     *  index load). */
    u64 corruptions() const;

    /** Where condemned entries/indexes are preserved for forensics;
     *  empty (the default) skips the file write but still drops the
     *  entry. The directory must already exist. */
    void setQuarantineDir(const std::string &dir);

    /** Invoked (outside the cache lock) whenever an entry fails its
     *  checksum, with the key and a short reason — the supervisor
     *  hangs its flight-recorder event and metric off this. */
    void setCorruptionHook(std::function<void(u64, const std::string &)> fn);

    /** Persist the index ("xloops-cache-1") crash-consistently
     *  (atomic tmp + rename + fsync); throws on I/O errors. */
    void saveIndex(const std::string &path) const;

    /** Load a saved index; returns the number of entries restored
     *  (0 when the file does not exist — a cold start, not an
     *  error). Damage is tolerated, never fatal: an unparseable
     *  document is quarantined wholesale, a checksum-failing entry
     *  individually, and loading continues. */
    size_t loadIndex(const std::string &path);

  private:
    struct Entry
    {
        std::string text;
        u32 crc = 0;
    };

    void evictIfNeeded();  // caller holds m

    /** Preserve @p text under the quarantine dir (caller holds m). */
    void quarantine(const std::string &name, const std::string &text);

    mutable std::mutex m;
    size_t maxEntries;
    std::map<u64, Entry> entries;
    std::deque<u64> insertionOrder;
    std::string quarantineDir;
    std::function<void(u64, const std::string &)> corruptionHook;
    u64 hitCount = 0;
    u64 missCount = 0;
    u64 evictCount = 0;
    u64 byteCount = 0;
    u64 corruptCount = 0;
};

} // namespace xloops

#endif // XLOOPS_SERVICE_CACHE_H
