/**
 * @file
 * Per-component statistics, in the spirit of gem5's stats package:
 * u64 counters plus log2-bucketed histograms, with text dumping for
 * benches and a stable sorted JSON serialization shared by
 * `xsim --stats-json` and the bench reporters.
 *
 * Every statistic is declared once, in XLOOPS_STAT_LIST, with its
 * name, unit and description (docs/STATS.md renders the same table).
 * Simulated components bump enum-indexed slots; names are resolved
 * only when a group is dumped, written as JSON or checkpointed.
 */

#ifndef XLOOPS_COMMON_STATS_H
#define XLOOPS_COMMON_STATS_H

#include <array>
#include <bitset>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace xloops {

class JsonWriter;
class JsonValue;

/**
 * X-macro: the stat catalogue, one entry per statistic,
 * X(id, name, kind, group, unit, description).
 *
 *  - name: the key in stats dumps, `xloops-stats-1` documents and
 *    checkpoints.
 *  - kind: Counter (a u64) or Histogram.
 *  - group: the component that sets it — gpp (the GPP timing models),
 *    lpsu, cache (an L1 model's own group), functional (the golden
 *    executors) or system (the run summary).
 *
 * Entries are sorted by name (static_assert below), so walking the
 * list in order emits keys in the same order a std::map would.
 */
#define XLOOPS_STAT_LIST(X)                                                \
    X(Amos, "amos", Counter, "gpp", "insts",                               \
      "AMOs retired by the GPP")                                           \
    X(ArchCorruptions, "arch_corruptions", Counter, "lpsu", "events",      \
      "hand-back register bits flipped by the architectural-corruption "   \
      "fault class")                                                       \
    X(BoundUpdates, "bound_updates", Counter, "lpsu", "events",            \
      "times a lane grew the bound of a dynamic-bound (.db) loop")         \
    X(BranchRedirects, "branch_redirects", Counter, "gpp", "events",       \
      "taken control transfers that redirected the in-order front end")    \
    X(BranchStallCycles, "branch_stall_cycles", Counter, "gpp", "cycles",  \
      "in-order front-end cycles lost to branch redirects")                \
    X(Branches, "branches", Counter, "gpp", "insts",                       \
      "branches and xloop instructions retired by the GPP")                \
    X(CancelledIterations, "cancelled_iterations", Counter, "lpsu",        \
      "iterations",                                                        \
      "speculative iterations dropped by a storm fallback or a "           \
      "data-dependent exit")                                               \
    X(CascadeSquashes, "cascade_squashes", Counter, "lpsu", "events",      \
      "younger iterations squashed behind a squash under cross-lane "      \
      "forwarding")                                                        \
    X(CibConsumes, "cib_consumes", Counter, "lpsu", "values",              \
      "values taken from a cross-iteration buffer")                        \
    X(CibPushes, "cib_pushes", Counter, "lpsu", "values",                  \
      "values pushed into a cross-iteration buffer")                       \
    X(Cycles, "cycles", Counter, "gpp", "cycles",                          \
      "GPP timeline at its last completed instruction")                    \
    X(CyclesTotal, "cycles_total", Counter, "system", "cycles",            \
      "simulated cycles of the whole run")                                 \
    X(DynInsts, "dyn_insts", Counter, "functional", "insts",               \
      "instructions executed by the functional executor")                  \
    X(Evictions, "evictions", Counter, "cache", "lines",                   \
      "valid lines evicted by a fill")                                     \
    X(ExtStallCycles, "ext_stall_cycles", Counter, "gpp", "cycles",        \
      "GPP cycles spent waiting while the LPSU held the loop")             \
    X(GppInsts, "gpp_insts", Counter, "system", "insts",                   \
      "instructions retired on the GPP")                                   \
    X(IbAccesses, "ib_accesses", Counter, "lpsu", "accesses",              \
      "lane instruction-buffer reads")                                     \
    X(IbFallbacks, "ib_fallbacks", Counter, "lpsu", "events",              \
      "xloops left to the GPP because the body exceeds the instruction "   \
      "buffers")                                                           \
    X(IdqPops, "idq_pops", Counter, "lpsu", "iterations",                  \
      "iterations the LMU handed to a lane")                               \
    X(InjectedBroadcastDelays, "injected_broadcast_delays", Counter,       \
      "lpsu", "events", "store broadcasts delayed by fault injection")     \
    X(InjectedJitterCycles, "injected_jitter_cycles", Counter, "lpsu",     \
      "cycles", "memory latency added by fault injection")                 \
    X(InjectedMigrations, "injected_migrations", Counter, "lpsu",          \
      "events", "mid-loop migrations to the GPP forced by fault "          \
      "injection")                                                         \
    X(InjectedSquashes, "injected_squashes", Counter, "lpsu", "events",    \
      "squashes forced by fault injection")                                \
    X(Insts, "insts", Counter, "gpp", "insts",                             \
      "instructions retired by the GPP timing model")                      \
    X(IqStallCycles, "iq_stall_cycles", Counter, "gpp", "cycles",          \
      "out-of-order dispatch cycles spent waiting for an issue-queue "     \
      "entry")                                                             \
    X(IterCycles, "iter_cycles", Histogram, "lpsu", "cycles",              \
      "cycles from activation to commit of each iteration")                \
    X(Iterations, "iterations", Counter, "lpsu", "iterations",             \
      "iterations committed by the lanes")                                 \
    X(LaneAmoStallCycles, "lane_amo_stall_cycles", Counter, "lpsu",        \
      "lane-cycles", "lane cycles a speculative AMO waited to become "     \
      "non-speculative")                                                   \
    X(LaneCibStallCycles, "lane_cib_stall_cycles", Counter, "lpsu",        \
      "lane-cycles", "lane cycles stalled on a full outbound "             \
      "cross-iteration buffer")                                            \
    X(LaneCirStallCycles, "lane_cir_stall_cycles", Counter, "lpsu",        \
      "lane-cycles", "lane cycles waiting for a cross-iteration "          \
      "register value")                                                    \
    X(LaneCommitStallCycles, "lane_commit_stall_cycles", Counter, "lpsu",  \
      "lane-cycles", "lane cycles a speculative iteration waited to "      \
      "become the oldest")                                                 \
    X(LaneExecCycles, "lane_exec_cycles", Counter, "lpsu", "lane-cycles",  \
      "lane cycles that issued or had an instruction in flight")           \
    X(LaneIdleCycles, "lane_idle_cycles", Counter, "lpsu", "lane-cycles",  \
      "lane cycles with no iteration to run")                              \
    X(LaneInsts, "lane_insts", Counter, "lpsu", "insts",                   \
      "instructions executed on the lanes, squashed ones included")        \
    X(LaneInstsTotal, "lane_insts_total", Counter, "system", "insts",      \
      "lane instructions of the whole run")                                \
    X(LaneLlfuStallCycles, "lane_llfu_stall_cycles", Counter, "lpsu",      \
      "lane-cycles", "lane cycles waiting for a shared long-latency "      \
      "unit")                                                              \
    X(LaneLsqStallCycles, "lane_lsq_stall_cycles", Counter, "lpsu",        \
      "lane-cycles", "lane cycles stalled on a full or overflowed LSQ")    \
    X(LaneMemAccesses, "lane_mem_accesses", Counter, "lpsu", "accesses",   \
      "lane accesses that used a shared data-memory port")                 \
    X(LaneMemportStallCycles, "lane_memport_stall_cycles", Counter,        \
      "lpsu", "lane-cycles", "lane cycles waiting for a shared "           \
      "data-memory port")                                                  \
    X(LaneMultiIssues, "lane_multi_issues", Counter, "lpsu", "insts",      \
      "extra same-cycle issues of superscalar lanes")                      \
    X(LaneOtherStallCycles, "lane_other_stall_cycles", Counter, "lpsu",    \
      "lane-cycles", "lane cycles stalled for no classified reason")       \
    X(LaneRawStallCycles, "lane_raw_stall_cycles", Counter, "lpsu",        \
      "lane-cycles", "lane cycles stalled on a register RAW hazard")       \
    X(LlfuOps, "llfu_ops", Counter, "gpp", "insts",                        \
      "multiply, divide and FP instructions retired by the GPP")           \
    X(LlfuStallCycles, "llfu_stall_cycles", Counter, "gpp", "cycles",      \
      "in-order cycles waiting for the unpipelined divider")               \
    X(Loads, "loads", Counter, "gpp", "insts",                             \
      "loads retired by the GPP")                                          \
    X(LpsuExecCycles, "lpsu_exec_cycles", Counter, "lpsu", "cycles",       \
      "LPSU specialized-execution cycles")                                 \
    X(LpsuFallbacks, "lpsu_fallbacks", Counter, "lpsu", "events",          \
      "xloop executions handed back to the GPP before their bound")        \
    X(LpsuScanCycles, "lpsu_scan_cycles", Counter, "lpsu", "cycles",       \
      "LPSU scan-phase cycles")                                            \
    X(LpsuStormSerializations, "lpsu_storm_serializations", Counter,       \
      "lpsu", "events", "squash storms that serialized the lanes")         \
    X(LsqDrainStores, "lsq_drain_stores", Counter, "lpsu", "accesses",     \
      "buffered stores written to memory at or before commit")             \
    X(LsqLoads, "lsq_loads", Counter, "lpsu", "entries",                   \
      "speculative loads recorded in a lane LSQ")                          \
    X(LsqOverflowSquashes, "lsq_overflow_squashes", Counter, "lpsu",       \
      "events", "iterations squashed because a lane LSQ overflowed")       \
    X(LsqStores, "lsq_stores", Counter, "lpsu", "entries",                 \
      "speculative stores buffered in a lane LSQ")                         \
    X(MemStallCycles, "mem_stall_cycles", Counter, "gpp", "cycles",        \
      "in-order cycles blocked on data-cache misses")                      \
    X(Mispredicts, "mispredicts", Counter, "gpp", "events",                \
      "out-of-order branch mispredictions")                                \
    X(MivFixups, "miv_fixups", Counter, "lpsu", "events",                  \
      "mutual induction variables advanced at iteration activation")       \
    X(RawStallCycles, "raw_stall_cycles", Counter, "gpp", "cycles",        \
      "in-order cycles stalled on a register RAW hazard")                  \
    X(ReadHits, "read_hits", Counter, "cache", "accesses",                 \
      "reads that hit")                                                    \
    X(ReadMisses, "read_misses", Counter, "cache", "accesses",             \
      "reads that missed")                                                 \
    X(RobStallCycles, "rob_stall_cycles", Counter, "gpp", "cycles",        \
      "out-of-order dispatch cycles spent waiting for a ROB entry")        \
    X(ScanInstWrites, "scan_inst_writes", Counter, "lpsu", "insts",        \
      "body instructions written into the instruction buffers")            \
    X(ScanLiveinWrites, "scan_livein_writes", Counter, "lpsu",             \
      "registers", "live-in registers copied into the lanes")              \
    X(ScanRenames, "scan_renames", Counter, "lpsu", "insts",               \
      "body instructions renamed during the scan phase")                   \
    X(Scans, "scans", Counter, "lpsu", "events",                           \
      "scan phases (one per specialized xloop execution)")                 \
    X(SquashCycles, "squash_cycles", Counter, "lpsu", "cycles",            \
      "cycles of iteration work discarded by squashes")                    \
    X(SquashedInsts, "squashed_insts", Counter, "lpsu", "insts",           \
      "lane instructions discarded by squashes")                           \
    X(Squashes, "squashes", Counter, "lpsu", "events",                     \
      "iteration squash-and-restarts")                                     \
    X(SquashesFiltered, "squashes_filtered", Counter, "lpsu", "events",    \
      "broadcast hits left unsquashed because the forwarded value was "    \
      "already right")                                                     \
    X(StlForwards, "stl_forwards", Counter, "gpp", "events",               \
      "out-of-order store-to-load forwards")                               \
    X(StoreBroadcasts, "store_broadcasts", Counter, "lpsu", "events",      \
      "store addresses broadcast to younger iterations")                   \
    X(Stores, "stores", Counter, "gpp", "insts",                           \
      "stores retired by the GPP")                                         \
    X(WriteHits, "write_hits", Counter, "cache", "accesses",               \
      "writes that hit")                                                   \
    X(WriteMisses, "write_misses", Counter, "cache", "accesses",           \
      "writes that missed")                                                \
    X(Writebacks, "writebacks", Counter, "cache", "lines",                 \
      "dirty lines written back on eviction")                              \
    X(XiInsts, "xi_insts", Counter, "functional", "insts",                 \
      "xi (mutual induction) instructions executed")                       \
    X(XloopInsts, "xloop_insts", Counter, "functional", "insts",           \
      "xloop instructions executed")

/** A counter is one u64; a histogram is a Histogram (below). */
enum class StatKind : u8
{
    Counter,
    Histogram,
};

/** Catalogue id of one statistic. */
enum class Stat : u8
{
#define XLOOPS_STAT_ID(id, name, kind, group, unit, desc) id,
    XLOOPS_STAT_LIST(XLOOPS_STAT_ID)
#undef XLOOPS_STAT_ID
};

/** One catalogue entry (see XLOOPS_STAT_LIST). */
struct StatInfo
{
    std::string_view name;
    StatKind kind;
    std::string_view group;
    std::string_view unit;
    std::string_view description;
};

inline constexpr StatInfo statCatalogue[] = {
#define XLOOPS_STAT_INFO(id, name, kind, group, unit, desc)                 \
    {name, StatKind::kind, group, unit, desc},
    XLOOPS_STAT_LIST(XLOOPS_STAT_INFO)
#undef XLOOPS_STAT_INFO
};

inline constexpr size_t numStats = std::size(statCatalogue);

constexpr bool
statCatalogueSorted()
{
    for (size_t i = 1; i < numStats; i++)
        if (!(statCatalogue[i - 1].name < statCatalogue[i].name))
            return false;
    return true;
}
static_assert(statCatalogueSorted(),
              "XLOOPS_STAT_LIST must be sorted by name");

constexpr const StatInfo &
statInfo(Stat s)
{
    return statCatalogue[static_cast<size_t>(s)];
}

/** The id named @p name, if the catalogue has one. */
std::optional<Stat> statByName(std::string_view name);

/**
 * Power-of-two-bucketed histogram: bucket 0 holds the value 0 and
 * bucket k (k >= 1) holds values in [2^(k-1), 2^k). Tracks count,
 * sum, min, max alongside the buckets, so mean is exact even though
 * buckets are coarse.
 */
class Histogram
{
  public:
    /** Bucket index for @p value (see class comment). */
    static unsigned bucketIndex(u64 value);

    /** Inclusive lower bound of bucket @p index. */
    static u64 bucketLo(unsigned index);

    void sample(u64 value, u64 weight = 1);

    u64 count() const { return n; }
    u64 sum() const { return total; }
    u64 min() const { return n == 0 ? 0 : lo; }
    u64 max() const { return hi; }
    double mean() const;

    /** Bucket counts, index 0 upward (trailing zero buckets trimmed). */
    const std::vector<u64> &buckets() const { return counts; }

    void merge(const Histogram &other);
    void clear();

    /** Compact one-line rendering for text dumps. */
    std::string dump() const;

    /** {"count":..,"min":..,"max":..,"mean":..,"buckets":[..]} */
    void writeJson(JsonWriter &w) const;

    /** Exact raw-state capture for checkpoints (unlike writeJson,
     *  which renders a lossy mean). */
    void saveState(JsonWriter &w) const;
    void loadState(const JsonValue &v);

  private:
    std::vector<u64> counts;
    u64 n = 0;
    u64 total = 0;
    u64 lo = ~u64{0};
    u64 hi = 0;
};

/**
 * The catalogue's statistics for one component: a u64 slot per
 * counter, a Histogram per histogram, and a presence bit per entry.
 * An entry is present once it has been added to, set or sampled —
 * even by zero — and only present entries are dumped, written or
 * checkpointed.
 */
class StatGroup
{
  public:
    /** Increment counter @p s by @p delta. */
    void
    add(Stat s, u64 delta = 1)
    {
        const auto i = static_cast<size_t>(s);
        counters[i] += delta;
        present.set(i);
    }

    /** Set counter @p s to an absolute value. */
    void
    set(Stat s, u64 value)
    {
        const auto i = static_cast<size_t>(s);
        counters[i] = value;
        present.set(i);
    }

    /** Read counter @p s (0 if never touched). */
    u64 get(Stat s) const { return counters[static_cast<size_t>(s)]; }

    /** Read the counter named @p name (0 if never touched or not in
     *  the catalogue). */
    u64 get(std::string_view name) const;

    /** Record one sample of histogram @p s. */
    void
    sample(Stat s, u64 value)
    {
        histograms[histogramSlot(s)].sample(value);
        present.set(static_cast<size_t>(s));
    }

    /** Histogram @p s (empty if never sampled). */
    const Histogram &hist(Stat s) const
    {
        return histograms[histogramSlot(s)];
    }

    /** Merge all counters and histograms from @p other into this. */
    void merge(const StatGroup &other);

    void clear();

    /** Render "name = value" lines (sorted), histograms last. */
    std::string dump(const std::string &prefix = "") const;

    /**
     * Emit `"counters": {...}, "histograms": {...}` into the writer's
     * current object — stable sorted key order, shared formatting for
     * every machine-readable stats consumer.
     */
    void writeJson(JsonWriter &w) const;

    /** Exact counter + histogram state capture for checkpoints. A
     *  name outside the catalogue fails the load (FatalError). */
    void saveState(JsonWriter &w) const;
    void loadState(const JsonValue &v);

  private:
    static constexpr size_t numHistograms = [] {
        size_t n = 0;
        for (const StatInfo &info : statCatalogue)
            n += info.kind == StatKind::Histogram;
        return n;
    }();

    /** Index into `histograms` of each histogram entry, in catalogue
     *  order; counters map past the end. */
    static constexpr std::array<u8, numStats> histogramSlots = [] {
        std::array<u8, numStats> slots{};
        u8 next = 0;
        for (size_t i = 0; i < numStats; i++) {
            slots[i] = statCatalogue[i].kind == StatKind::Histogram
                           ? next++
                           : static_cast<u8>(numHistograms);
        }
        return slots;
    }();

    static size_t histogramSlot(Stat s)
    {
        return histogramSlots[static_cast<size_t>(s)];
    }

    /** Call @p fn(id, info) for each present entry of @p kind, in
     *  name order. */
    template <typename Fn>
    void
    forEach(StatKind kind, Fn fn) const
    {
        for (size_t i = 0; i < numStats; i++) {
            if (present.test(i) && statCatalogue[i].kind == kind)
                fn(static_cast<Stat>(i), statCatalogue[i]);
        }
    }

    std::array<u64, numStats> counters{};
    std::array<Histogram, numHistograms> histograms;
    std::bitset<numStats> present;
};

} // namespace xloops

#endif // XLOOPS_COMMON_STATS_H
