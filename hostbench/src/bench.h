/**
 * @file
 * Shared pieces of the host-speed benchmark: the run's arguments and
 * outcome, seeded randomness, result digests, quantiles, host clocks,
 * the layer span recorder of the traced run, and the metric catalogue
 * every workload reports against.
 *
 * The benchmark only calls the simulator's public entry points and
 * times them from the outside; nothing here reaches into src/.
 */

#ifndef HOSTBENCH_BENCH_H
#define HOSTBENCH_BENCH_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace xloops {
struct SweepCell;
struct SysResult;
}

namespace hostbench {

using u64 = std::uint64_t;
using u32 = std::uint32_t;

/** Command line of one benchmark run. */
struct Args
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string root = ".";        ///< checkout root (bench/, reference)
    std::string runDir;            ///< scratch files of this run
    std::string xloopsd;           ///< daemon binary (service workload)
    std::string reference;         ///< reference digests file
    u64 missSeeds = 0;             ///< S miss seeds per spec (0 = all)
};

/** Monotonic host time in nanoseconds. */
u64 nowNs();

/** Seconds since @p startNs. */
double secondsSince(u64 startNs);

/**
 * CPU time, in ns, that process @p pid (0 = this one) has used on all
 * its threads. The kernel leaves out time the hypervisor stole from
 * the VM, so a CPU-time figure holds still on a host whose other
 * tenants are busy, where a wall-clock figure does not.
 */
u64 cpuNs(int pid = 0);

/** The host's stolen CPU time so far, in seconds summed over CPUs,
 *  from /proc/stat (0 where the kernel does not report it). */
double stealSeconds();

/** splitmix64: small, seedable, identical on every platform. */
struct Rng
{
    u64 state;
    explicit Rng(u64 seed) : state(seed) {}
    u64 next();
    u64 below(u64 n) { return next() % n; }
};

/** Seeded Fisher-Yates shuffle. */
template <typename T>
void
shuffle(std::vector<T> &v, Rng &rng)
{
    for (size_t i = v.size(); i > 1; i--)
        std::swap(v[i - 1], v[rng.below(i)]);
}

/** 64-bit FNV-1a. */
u64 fnv1a(std::string_view text, u64 h = 1469598103934665603ULL);

/** The digest of one simulated result: cycles, instruction counts and
 *  the canonical "xloops-stats-1" text. */
std::string resultDigest(u64 cycles, u64 gppInsts, u64 laneInsts,
                         const std::string &statsJson);

/** Linear-interpolated quantile (q in [0,1]) of @p v; 0 when empty. */
double quantile(std::vector<double> v, double q);

/**
 * Median wall time, in s, of repeated calls of @p setUp: a workload's
 * own set-up, timed in-process. It runs at least 9 times and until
 * 0.2 s have passed, up to 1001 times, so a set-up of microseconds
 * still gets a steady median. The first call also pays one-time
 * static initialisation; the median leaves it out.
 */
template <typename F>
double
medianSetUpSeconds(F &&setUp)
{
    std::vector<double> times;
    const u64 start = nowNs();
    while (times.size() < 9 ||
           (times.size() < 1001 && secondsSince(start) < 0.2)) {
        const u64 t0 = nowNs();
        setUp();
        times.push_back(secondsSince(t0));
    }
    return quantile(times, 0.5);
}

/**
 * Throughput as the median, over the whole windows of @p windowSeconds
 * in [startNs, endNs), of operations completed per second; @p doneNs
 * holds each operation's completion time. A median of short windows
 * shrugs off bursts of host noise that a total / wall ratio absorbs.
 */
double medianWindowRate(const std::vector<u64> &doneNs, u64 startNs,
                        u64 endNs, double windowSeconds);

/** VmHWM of process @p pid (0 = self) in MB, from /proc. */
double peakRssMb(int pid = 0);

/** One printed metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** What one run reports: the result line's fields. */
struct Outcome
{
    u64 attempted = 0;
    u64 failed = 0;  ///< any failed operation makes the run incorrect
    std::vector<Metric> metrics;
    std::vector<std::string> failures;  ///< first few reasons

    /** Count one failed operation and remember why. */
    void fail(const std::string &why);

    void add(const std::string &name, double value,
             const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
};

/** Reference digests taken at the seed commit, keyed by cell id. */
class Reference
{
  public:
    /** Load @p path; an unreadable or garbled file throws. */
    void load(const std::string &path);
    /** The digest of @p key, or "" when the reference has none. */
    std::string find(const std::string &key) const;
    /** Digest @p got for @p key matches the reference (an absent key
     *  is a mismatch). */
    bool matches(const std::string &key, const std::string &got) const
    {
        return find(key) == got;
    }

  private:
    std::map<std::string, std::string> digests;
};

/** Identity of a kernel run, the reference's key. */
std::string cellKey(const std::string &kernel, const std::string &config,
                    const std::string &mode, bool gpBinary,
                    u64 injectSeed = 0);

/** Simulated counts of one result, carried by the span that made it
 *  (a run) or received it (a service reply). */
struct SimCounts
{
    double gppInsts = 0;
    double laneInsts = 0;
    double cycles = 0;
    double lpsuCycles = 0;
    double simulatedInsts = 0;  ///< 0 for a result served from a cache

    SimCounts &operator+=(const SimCounts &o);
};

/** The counts of a result simulated here. */
SimCounts simCounts(const xloops::SysResult &res);

/**
 * Layer spans of the traced run. Each span has a name, start, end,
 * parent span and request id, plus the work it did (instructions,
 * bytes) and the counts it simulated, so ratios are measured where
 * the work happens. A layer span is named by its metric key
 * ("asm.assemble", "system.run.S.io"), and a layer's totals are the
 * sums over the spans of that name. Spans are kept in memory and
 * written once, at the end, as Chrome trace_event JSON.
 */
class Spans
{
  public:
    struct Record
    {
        std::string name;
        u64 startNs = 0;
        u64 endNs = 0;
        u32 id = 0;
        u32 parent = 0;
        u64 request = 0;
        u32 thread = 0;
        bool layer = true;  ///< a layer's span, not a container
        double work = 0;
        SimCounts sim;
    };

    /** Open a span on the calling thread; returns its id. */
    u32 open();
    /** Close span @p id opened at @p startNs; returns its length. */
    u64 close(u32 id, const std::string &name, u64 startNs, u64 request,
              bool layer, double work = 0, const SimCounts &sim = {});
    /** Record a layer span whose bounds were measured elsewhere. */
    void record(const std::string &name, u64 startNs, u64 endNs,
                u32 parent, u64 request);

    struct Total
    {
        double ns = 0;
        double work = 0;
        u64 count = 0;
        SimCounts sim;

        Total &operator+=(const Total &o);
        /** Mean time per span, in us. */
        double meanUs() const { return count ? ns / count * 1e-3 : 0; }
        /** Time per unit of work, in ns. */
        double nsPerWork() const { return work > 0 ? ns / work : 0; }
    };
    /** The spans named @p name (every span when empty), summed. */
    Total total(const std::string &name = "") const;

    /** Share (percent) of @p threads x [fromNs, toNs] that no layer
     *  span covers (layer spans of one thread never overlap). */
    double uncoveredPct(unsigned threads, u64 fromNs, u64 toNs) const;

    /** Write every span as Chrome trace_event JSON. */
    void writeChrome(const std::string &path) const;

  private:
    mutable std::mutex m;
    std::vector<Record> records;
    u32 nextId = 1;
};

/**
 * The per-layer metrics every traced run reports alike, then write the
 * spans: "sim.*" counts per operation and the simulated rate, the
 * tracing overhead against the untraced half's time per operation,
 * and the share of @p threads x [tStart, tEnd) no layer span covers.
 */
void reportTraced(const Args &args, const Spans &spans, double ops,
                  unsigned threads, u64 tStart, u64 tEnd,
                  double untracedMsPerOp, Outcome &out);

/** RAII span: opens on construction, closes on close() or scope end. */
class Span
{
  public:
    Span(Spans &spans, std::string name, u64 request = 0,
         bool layer = true);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Close now with the work done and the counts simulated; returns
     *  the span's length in ns. */
    u64 close(double work = 0, const SimCounts &sim = {});

  private:
    Spans &spans;
    std::string name;
    u64 request;
    bool layer;
    u32 id;
    u64 startNs;
    bool open = true;
};

/** The end-to-end metrics, in print order, with units. */
const std::vector<std::pair<std::string, std::string>> &endToEndCatalogue();

/** The per-layer metrics, in print order, with units. */
const std::vector<std::pair<std::string, std::string>> &perLayerCatalogue();

/**
 * Fill every catalogue metric @p out lacks: a layer that does not run
 * on this workload reports 0. Throws when @p out holds a name outside
 * the catalogue (a typo would otherwise vanish from the report).
 */
void completeMetrics(Outcome &out, bool traced);

/** The last line of stdout: the run's result object. */
void printResult(const Outcome &out);

/** Human-readable summary on stderr; @p stealPct is the host's stolen
 *  share of CPU time during the run. */
void printSummary(const Args &args, const Outcome &out, double stealPct);

// Workloads: each measures for args.seconds and fills @p out.
void runSweepWorkload(const Args &args, bool specialized, Outcome &out);
void runFuzzWorkload(const Args &args, Outcome &out);
void runServiceWorkload(const Args &args, Outcome &out);

/** The 150 cells of sweep-spec (@p specialized) or sweep-trad. */
std::vector<xloops::SweepCell> sweepCells(bool specialized);

/** The service workload's job space: short kernels x configs x {T, S}. */
const std::vector<std::string> &serviceKernels();
const std::vector<std::string> &serviceConfigs();

/**
 * Fault seeds per S spec that have a reference digest, the fault rate
 * of a miss, and the seed of index @p i. A T miss needs no per-seed
 * reference (faults only touch the LPSU), so its seeds are unbounded.
 * An S miss draws from this pool; a run that uses it all up ends its
 * timed phase there rather than failing.
 */
constexpr u64 missSeedsPerSpec = 1024;
constexpr double missFaultRate = 0.001;
inline u64
missFaultSeed(u64 i)
{
    return 1000 + i;
}

/** Regenerate the reference digests file at args.reference. */
void makeReference(const Args &args);

} // namespace hostbench

#endif // HOSTBENCH_BENCH_H
