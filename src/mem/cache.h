/**
 * @file
 * Cycle-level L1 cache timing model (set-associative, LRU, write-back,
 * write-allocate). Purely a latency model: data always comes from the
 * functional memory; this class only answers "how long did that take".
 */

#ifndef XLOOPS_MEM_CACHE_H
#define XLOOPS_MEM_CACHE_H

#include <vector>

#include "common/stats.h"
#include "common/trace.h"
#include "common/types.h"

namespace xloops {

class JsonValue;

struct CacheConfig
{
    u32 sizeBytes = 16 * 1024;
    u32 assoc = 2;
    u32 lineBytes = 32;
    Cycle hitLatency = 1;
    Cycle missPenalty = 20;
};

/** Timing-only set-associative cache. */
class L1Cache
{
  public:
    explicit L1Cache(const CacheConfig &config = {});

    /** Model one access; returns its latency in cycles. */
    Cycle access(Addr addr, bool is_write);

    /** Like access(), but also emits a CacheMiss trace event stamped
     *  at @p now when the access missed and a tracer is attached. */
    Cycle access(Addr addr, bool is_write, Cycle now);

    /** Stream miss events to @p t (nullptr disables; see trace.h). */
    void setTracer(Tracer *t) { tracer = t; }

    /** Drop all lines (e.g., between benchmark phases). */
    void flush();

    const CacheConfig &config() const { return cfg; }
    StatGroup &stats() { return statGroup; }
    const StatGroup &stats() const { return statGroup; }

    /** Checkpoint capture of lines, LRU stamps, and statistics. */
    void saveState(JsonWriter &w) const;
    void loadState(const JsonValue &v);

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        u32 tag = 0;
        u64 lruStamp = 0;
    };

    CacheConfig cfg;
    u32 numSets;
    // Line size and set count are powers of two, so the set index and
    // tag are shifts and a mask, not divisions.
    unsigned lineShift;
    unsigned setShift;
    u32 setMask;
    std::vector<Line> lines;  // numSets * assoc
    u64 stamp = 0;
    StatGroup statGroup;
    Tracer *tracer = nullptr;
};

} // namespace xloops

#endif // XLOOPS_MEM_CACHE_H
