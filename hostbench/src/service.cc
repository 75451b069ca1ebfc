/**
 * @file
 * The service workload: spawn `xloopsd --workers 2 --journal <tmp>`
 * and drive it over its Unix socket with a closed loop of 4 client
 * connections sending xloops-job-1 submits.
 *
 * Jobs come from the short Table II kernels x {io+x, ooo/4+x} x
 * {T, S}. One request in three (one per block of three, at a seeded
 * position) repeats a spec from a hit pool warmed, untimed, before
 * timing starts: a guaranteed cache hit, i.e. a read. The rest carry
 * a fresh fault seed at rate 0.001: a guaranteed miss, i.e. simulate,
 * insert and journal. Simulation is nearly all of a miss, so the
 * queue, cache, journal, protocol and stats-JSON legs only show on
 * hits; this is the only workload that measures them. Latency is
 * submit-to-result at the client.
 */

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <mutex>
#include <thread>

#include "bench.h"
#include "common/json.h"
#include "common/log.h"
#include "service/client.h"
#include "service/protocol.h"

extern char **environ;

namespace hostbench {

using namespace xloops;

/** The Table II kernels of at most ~5 ms per job on io+x and ooo/4+x
 *  (one host core, Release), covering every dependence pattern. */
const std::vector<std::string> &
serviceKernels()
{
    static const std::vector<std::string> k = {
        "rgb2cmyk-uc", "kmeans-or",   "sha-or",  "dynprog-om",
        "knn-om",      "ksack-sm-om", "mm-orm",
        "rsort-ua",    "bfs-uc-db",
    };
    return k;
}

const std::vector<std::string> &
serviceConfigs()
{
    static const std::vector<std::string> c = {"io+x", "ooo/4+x"};
    return c;
}

namespace {

constexpr unsigned daemonWorkers = 2;
constexpr unsigned clients = 4;
constexpr unsigned hitEvery = 3;        ///< one hit per block of 3
constexpr u64 cacheEntries = 1 << 16;
constexpr unsigned setupProbes = 10;
constexpr double rateWindowSeconds = 0.25;
// Memory is read after a fixed number of jobs: every miss adds a cache
// entry, so a reading at the end would charge a faster daemon for the
// extra results it cached in the same time.
constexpr u64 rssMarkJobs = 1500;

JobSpec
specOf(const std::string &kernel, const std::string &config,
       const std::string &mode)
{
    JobSpec s;
    s.kernel = kernel;
    s.config = config;
    s.mode = mode;
    return s;
}

std::string
submitLine(const JobSpec &spec)
{
    Request req;
    req.op = "submit";
    req.job = spec;
    return encodeRequest(req);
}

std::string
opLine(const std::string &op)
{
    Request req;
    req.op = op;
    return encodeRequest(req);
}

/** One spawned xloopsd, drained (or killed) on destruction. */
class Daemon
{
  public:
    Daemon(const Args &args, const std::string &dir)
        : socket(dir + "/d.sock"), journal(dir + "/journal")
    {
        std::filesystem::create_directories(dir);
        const std::string log = dir + "/xloopsd.log";
        const std::string entries = std::to_string(cacheEntries);
        const std::string workers = std::to_string(daemonWorkers);
        std::vector<std::string> argv = {
            args.xloopsd,    "--socket",       socket,
            "--workers",     workers,          "--journal",
            journal,         "--artifact-dir", dir,
            "--cache-entries", entries};
        std::vector<char *> cargv;
        for (std::string &a : argv)
            cargv.push_back(a.data());
        cargv.push_back(nullptr);

        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                         O_WRONLY | O_CREAT | O_TRUNC, 0644);
        posix_spawn_file_actions_adddup2(&fa, 1, 2);
        const u64 t0 = nowNs();
        const int rc = posix_spawn(&pid, args.xloopsd.c_str(), &fa, nullptr,
                                   cargv.data(), environ);
        posix_spawn_file_actions_destroy(&fa);
        if (rc != 0)
            throw std::runtime_error("cannot spawn " + args.xloopsd);

        // Ready = the socket answers a ping.
        while (true) {
            try {
                ServiceClient c(socket, 0);
                if (c.request(opLine("ping")).find("\"ok\"") !=
                    std::string::npos)
                    break;
            } catch (const FatalError &) {
            }
            int status = 0;
            if (waitpid(pid, &status, WNOHANG) == pid) {
                pid = -1;
                throw std::runtime_error("xloopsd exited during start-up");
            }
            if (secondsSince(t0) > 20) {
                ::kill(pid, SIGKILL);
                waitpid(pid, &status, 0);
                pid = -1;
                throw std::runtime_error("xloopsd not ready after 20 s");
            }
            usleep(500);
        }
        readySeconds = secondsSince(t0);
    }

    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Drain gracefully, kill if that takes over 20 s; wait for exit. */
    void
    stop()
    {
        if (pid <= 0)
            return;
        try {
            ServiceClient c(socket, 0);
            c.request(opLine("drain"));
        } catch (const FatalError &) {
            ::kill(pid, SIGTERM);
        }
        const u64 t0 = nowNs();
        int status = 0;
        while (waitpid(pid, &status, WNOHANG) == 0) {
            if (secondsSince(t0) > 20) {
                ::kill(pid, SIGKILL);
                waitpid(pid, &status, 0);
                break;
            }
            usleep(1000);
        }
        pid = -1;
    }

    const std::string socket;
    const std::string journal;
    pid_t pid = -1;
    double readySeconds = 0;
};

/** One client-observed job. */
struct Job
{
    bool hit = false;
    bool ok = false;
    double latencyMs = 0;
    u64 queueUs = 0, cacheUs = 0, simUs = 0, attempts = 0;
    u64 replyBytes = 0;
    u64 cycles = 0, gppInsts = 0, laneInsts = 0, lpsuCycles = 0;
    u64 endNs = 0;  ///< when the reply arrived
};

/** What every reply is checked against. */
struct Expect
{
    const Reference &ref;
    std::string kernel, config, mode;
    u64 faultSeed = 0;  ///< 0 for hit-pool specs
    bool hit = false;
};

/** Decode and check one reply; failures are recorded in @p why. */
Job
checkReply(const std::string &line, const Expect &e, std::string &why)
{
    Job j;
    j.hit = e.hit;
    j.replyBytes = line.size() + 1;
    const JsonValue v = jsonParse(line);
    const std::string status = v.at("status").asString();
    const std::string id = e.kernel + "|" + e.config + "|" + e.mode +
                           (e.faultSeed ? "|f" + std::to_string(e.faultSeed)
                                        : "");
    if (status != "done") {
        why = id + ": status " + status;
        return j;
    }
    const bool cached = v.at("cached").asBool();
    j.attempts = v.getU64("attempts", 0);
    j.queueUs = v.getU64("queue_wait_us", 0);
    j.cacheUs = v.getU64("cache_lookup_us", 0);
    j.simUs = v.getU64("sim_us", 0);
    // A hit's reply carries only the cached stats document (its
    // top-level cycles/gpp_insts are 0), so counts come from there.
    const std::string &stats = v.at("stats").asString();
    const JsonValue doc = jsonParse(stats);
    j.cycles = doc.at("result").at("cycles").asU64();
    j.gppInsts = doc.at("result").at("gpp_insts").asU64();
    j.laneInsts = doc.at("result").at("lane_insts").asU64();
    j.lpsuCycles = doc.at("counters").getU64("lpsu_exec_cycles", 0);
    if (cached != e.hit) {
        why = id + (e.hit ? ": hit-class job was not cached"
                          : ": miss-class job was served from the cache");
        return j;
    }
    // Faults only touch the LPSU: a T job's result is its fault-free
    // cell's, an S job's is its (spec, seed) pair's.
    const u64 refSeed = e.mode == "S" ? e.faultSeed : 0;
    const std::string key =
        cellKey(e.kernel, e.config, e.mode, false, refSeed);
    const std::string got =
        resultDigest(j.cycles, j.gppInsts, j.laneInsts, stats);
    if (!e.ref.matches(key, got)) {
        why = id + ": digest " + got + " != reference " + e.ref.find(key);
        return j;
    }
    j.ok = true;
    return j;
}

struct Phase
{
    std::vector<Job> jobs;
    u64 startNs = 0, endNs = 0;
    u64 hitsScheduled = 0;
    double rssMb = 0;  ///< daemon VmHWM after rssMarkJobs jobs
    /** Daemon CPU time per completed job, per rate window. */
    std::vector<double> cpuMsPerJob;
    double wallSeconds() const
    {
        return static_cast<double>(endNs - startNs) * 1e-9;
    }
};

/**
 * The miss-class jobs of a run. A T miss takes a fresh fault seed from
 * an unbounded counter; an S miss takes the next (spec, seed index)
 * pair of a seeded shuffle of the reference pool, up to @c sEnd. The
 * cache has room for @c room misses before it would evict a hit-pool
 * entry. A phase ends early, without failing, when either runs out.
 */
struct Misses
{
    std::vector<JobSpec> t;
    std::vector<std::pair<JobSpec, u64>> s;
    std::atomic<u64> nextT{0};
    std::atomic<size_t> nextS{0};
    size_t sEnd = 0;
    std::atomic<u64> issued{0};
    u64 room = 0;
};

/**
 * Closed loop: each of 4 clients keeps one request in flight on its
 * own connection until @p seconds have passed or the misses run out.
 * Meanwhile the daemon's CPU time is sampled once per rate window.
 */
Phase
drive(const Daemon &daemon, const Reference &ref, u64 seed, double seconds,
      Misses &misses, const std::vector<JobSpec> &specs, Spans *spans,
      Outcome &out, std::mutex &outMutex)
{
    Phase phase;
    std::mutex m;
    std::atomic<u64> completed{0};
    std::atomic<u64> stopNs{0};
    const auto stop = [&] {
        u64 none = 0;
        stopNs.compare_exchange_strong(none, nowNs());
    };
    phase.startNs = nowNs();
    const u64 deadline =
        phase.startNs + static_cast<u64>(seconds * 1e9);
    std::vector<std::thread> fleet;
    for (unsigned c = 0; c < clients; c++) {
        fleet.emplace_back([&, c] {
            Rng rng(seed * 1000003 + c * 7919 + (spans ? 1 : 0));
            std::vector<Job> mine;
            u64 hits = 0;
            std::unique_ptr<ServiceClient> conn;
            u64 hitSlot = 0;
            for (u64 k = 0; stopNs.load() == 0 && nowNs() < deadline; k++) {
                if (k % hitEvery == 0)
                    hitSlot = rng.below(hitEvery);
                const bool hit = k % hitEvery == hitSlot;
                JobSpec spec;
                u64 faultSeed = 0;
                if (hit) {
                    spec = specs[rng.below(specs.size())];
                    hits++;
                } else if (misses.issued.fetch_add(1) >= misses.room) {
                    stop();
                    break;
                } else if (rng.below(2) == 0) {
                    spec = misses.t[rng.below(misses.t.size())];
                    faultSeed = missFaultSeed(misses.nextT.fetch_add(1));
                } else {
                    const size_t i = misses.nextS.fetch_add(1);
                    if (i >= misses.sEnd) {
                        stop();
                        break;
                    }
                    spec = misses.s[i].first;
                    faultSeed = missFaultSeed(misses.s[i].second);
                }
                if (faultSeed) {
                    spec.injectSeed = faultSeed;
                    spec.injectRate = missFaultRate;
                }
                const Expect e{ref,  spec.kernel, spec.config,
                               spec.mode, faultSeed, hit};
                std::string why;
                Job j;
                j.hit = hit;
                const std::string line = submitLine(spec);
                const u64 t0 = nowNs();
                u32 span = 0;
                if (spans)
                    span = spans->open();
                try {
                    if (!conn)
                        conn = std::make_unique<ServiceClient>(
                            daemon.socket, 2000);
                    const std::string reply = conn->request(line);
                    const u64 t1 = nowNs();
                    j = checkReply(reply, e, why);
                    j.endNs = t1;
                } catch (const std::exception &ex) {
                    conn.reset();
                    why = std::string("transport: ") + ex.what();
                    j.endNs = nowNs();
                }
                j.latencyMs = static_cast<double>(j.endNs - t0) * 1e-6;
                if (spans) {
                    // The reply's own span fields, laid end to end
                    // inside the client span; the rest is protocol,
                    // server, journal and hand-offs.
                    const u64 req = seed << 20 | (c << 16) | (k & 0xffff);
                    SimCounts sim;
                    sim.gppInsts = static_cast<double>(j.gppInsts);
                    sim.laneInsts = static_cast<double>(j.laneInsts);
                    sim.cycles = static_cast<double>(j.cycles);
                    sim.lpsuCycles = static_cast<double>(j.lpsuCycles);
                    sim.simulatedInsts =
                        hit ? 0 : sim.gppInsts + sim.laneInsts;
                    spans->close(span,
                                 hit ? "service.request.hit"
                                     : "service.request.miss",
                                 t0, req, false, 0, sim);
                    u64 at = t0;
                    for (const auto &[name, us] :
                         {std::pair<const char *, u64>{"service.queue_wait",
                                                       j.queueUs},
                          {"service.cache_lookup", j.cacheUs},
                          {"service.sim", j.simUs}}) {
                        const u64 end =
                            std::min(j.endNs, at + us * 1000);
                        spans->record(name, at, end, span, req);
                        at = end;
                    }
                    spans->record("service.other", at, j.endNs, span, req);
                }
                if (!why.empty()) {
                    std::lock_guard<std::mutex> lock(outMutex);
                    out.fail(why);
                }
                mine.push_back(j);
                if (completed.fetch_add(1) + 1 == rssMarkJobs) {
                    std::lock_guard<std::mutex> lock(m);
                    phase.rssMb = peakRssMb(daemon.pid);
                }
            }
            std::lock_guard<std::mutex> lock(m);
            phase.jobs.insert(phase.jobs.end(), mine.begin(), mine.end());
            phase.hitsScheduled += hits;
        });
    }
    u64 lastCpu = cpuNs(daemon.pid), lastJobs = 0;
    while (stopNs.load() == 0 && nowNs() < deadline) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(rateWindowSeconds));
        const u64 cpu = cpuNs(daemon.pid), jobs = completed.load();
        if (jobs > lastJobs)
            phase.cpuMsPerJob.push_back(
                static_cast<double>(cpu - lastCpu) * 1e-6 /
                static_cast<double>(jobs - lastJobs));
        lastCpu = cpu;
        lastJobs = jobs;
    }
    for (std::thread &t : fleet)
        t.join();
    phase.endNs = stopNs.load() ? stopNs.load() : nowNs();
    if (phase.rssMb == 0)
        phase.rssMb = peakRssMb(daemon.pid);
    return phase;
}

std::vector<double>
latencies(const Phase &p, int hitClass)
{
    std::vector<double> v;
    for (const Job &j : p.jobs)
        if (hitClass < 0 || j.hit == (hitClass == 1))
            v.push_back(j.latencyMs);
    return v;
}

/** Client latency minus the reply's spans, per class, in us. */
std::vector<double>
otherUs(const Phase &p, bool hit)
{
    std::vector<double> v;
    for (const Job &j : p.jobs)
        if (j.hit == hit && j.ok)
            v.push_back(j.latencyMs * 1e3 -
                        static_cast<double>(j.queueUs + j.cacheUs +
                                            j.simUs));
    return v;
}

/**
 * Check the traffic was what it was declared to be: hit share, cache
 * counters, conservation, and no eviction.
 */
void
verifyTraffic(const Daemon &daemon, const std::vector<const Phase *> &phases,
              u64 warmJobs, Outcome &out)
{
    u64 jobs = 0, hits = 0, scheduled = 0, misses = 0;
    for (const Phase *p : phases) {
        for (const Job &j : p->jobs) {
            jobs++;
            hits += j.hit ? 1 : 0;
            misses += j.hit ? 0 : 1;
        }
        scheduled += p->hitsScheduled;
    }
    if (hits != scheduled)
        out.fail("hit-class jobs " + std::to_string(hits) +
                 " != scheduled " + std::to_string(scheduled));
    // One hit per block of three per client: the share is 1/3 up to
    // each client's last, partial block.
    const double share = static_cast<double>(hits) /
                         static_cast<double>(std::max<u64>(jobs, 1));
    if (std::fabs(share - 1.0 / hitEvery) * static_cast<double>(jobs) >
        2.0 * clients)
        out.fail("hit share " + std::to_string(share) + " != declared 1/3");
    if (misses + warmJobs >= cacheEntries)
        out.fail("misses reached the cache capacity");

    ServiceClient c(daemon.socket, 0);
    const JsonValue reply = jsonParse(c.request(opLine("metrics")));
    const JsonValue doc = jsonParse(reply.at("metrics").asString());
    const JsonValue &counters = doc.at("counters");
    const JsonValue &gauges = doc.at("gauges");
    const auto counter = [&](const char *name) {
        return counters.getU64(name, ~0ULL);
    };
    const u64 admitted = counter("xloops_jobs_admitted_total");
    const u64 accounted = counter("xloops_jobs_completed_total") +
                          counter("xloops_jobs_failed_total") +
                          counter("xloops_jobs_shed_total") +
                          counter("xloops_jobs_cancelled_total") +
                          gauges.getU64("xloops_jobs_in_flight", ~0ULL);
    if (admitted != accounted || admitted != jobs + warmJobs)
        out.fail("metrics: admitted " + std::to_string(admitted) +
                 ", accounted " + std::to_string(accounted) + ", sent " +
                 std::to_string(jobs + warmJobs));
    if (counter("xloops_cache_hits_total") != hits)
        out.fail("metrics: cache hits " +
                 std::to_string(counter("xloops_cache_hits_total")) +
                 " != client hits " + std::to_string(hits));
    if (counter("xloops_cache_evictions_total") != 0)
        out.fail("metrics: cache evicted entries");
}

} // namespace

void
runServiceWorkload(const Args &args, Outcome &out)
{
    Reference ref;
    ref.load(args.reference);

    std::vector<JobSpec> specs;
    for (const std::string &k : serviceKernels())
        for (const std::string &c : serviceConfigs())
            for (const char *mode : {"T", "S"})
                specs.push_back(specOf(k, c, mode));

    // Set-up time: spawn to ready, several times, median.
    std::vector<double> setups;
    for (unsigned i = 0; i < (args.trace ? 0 : setupProbes); i++) {
        Daemon probe(args, args.runDir + "/probe" + std::to_string(i));
        setups.push_back(probe.readySeconds);
    }
    Daemon daemon(args, args.runDir + "/daemon");
    setups.push_back(daemon.readySeconds);

    // Warm the hit pool, untimed: every spec once, all misses.
    u64 warmJobs = 0;
    {
        ServiceClient c(daemon.socket, 0);
        for (const JobSpec &s : specs) {
            std::string why;
            checkReply(c.request(submitLine(s)),
                       {ref, s.kernel, s.config, s.mode, 0, false}, why);
            warmJobs++;
            if (!why.empty())
                throw std::runtime_error("warming the hit pool: " + why);
        }
    }

    // Miss-class jobs: T specs with unbounded seeds, and the S pool of
    // (spec, seed index) pairs in a seeded order, unique within a run.
    // A traced run gives each of its phases half the pool.
    Misses misses;
    const u64 seedsPerSpec =
        args.missSeeds ? std::min(args.missSeeds, missSeedsPerSpec)
                       : missSeedsPerSpec;
    for (const JobSpec &spec : specs) {
        if (spec.mode == "T")
            misses.t.push_back(spec);
        else
            for (u64 i = 0; i < seedsPerSpec; i++)
                misses.s.push_back({spec, i});
    }
    Rng rng(args.seed * 0x9e3779b97f4a7c15ULL + 3);
    shuffle(misses.s, rng);
    misses.sEnd = args.trace ? misses.s.size() / 2 : misses.s.size();
    misses.room = cacheEntries - warmJobs - 1;
    std::mutex outMutex;

    const double untracedSeconds =
        args.trace ? args.seconds / 2 : args.seconds;
    const Phase plain = drive(daemon, ref, args.seed, untracedSeconds,
                              misses, specs, nullptr, out, outMutex);
    Spans spans;
    Phase traced;
    if (args.trace) {
        misses.nextS = misses.sEnd;
        misses.sEnd = misses.s.size();
        traced = drive(daemon, ref, args.seed, args.seconds / 2, misses,
                       specs, &spans, out, outMutex);
    }

    std::vector<const Phase *> phases = {&plain};
    if (args.trace)
        phases.push_back(&traced);
    verifyTraffic(daemon, phases, warmJobs, out);
    for (const Phase *p : phases)
        out.attempted += p->jobs.size();
    struct stat st{};
    const u64 journalBytes =
        ::stat(daemon.journal.c_str(), &st) == 0 ? st.st_size : 0;
    daemon.stop();

    if (!args.trace) {
        std::vector<u64> doneNs;
        for (const Job &j : plain.jobs)
            doneNs.push_back(j.endNs);
        out.add("ops_per_s",
                medianWindowRate(doneNs, plain.startNs, plain.endNs,
                                 rateWindowSeconds),
                "1/s");
        out.add("cpu_ms_per_op", quantile(plain.cpuMsPerJob, 0.5), "ms");
        out.add("latency_p50_ms", quantile(latencies(plain, -1), 0.5), "ms");
        out.add("latency_p90_ms", quantile(latencies(plain, -1), 0.9),
                "ms");
        out.add("setup_s", quantile(setups, 0.5), "s");
        out.add("peak_rss_mb", plain.rssMb, "MB");
        return;
    }

    const Phase &p = traced;
    const double n = static_cast<double>(std::max<size_t>(p.jobs.size(), 1));
    std::vector<double> queue, cache, sim;
    double hits = 0, retries = 0, replyBytes = 0;
    for (const Job &j : p.jobs) {
        queue.push_back(static_cast<double>(j.queueUs));
        cache.push_back(static_cast<double>(j.cacheUs));
        if (!j.hit)
            sim.push_back(static_cast<double>(j.simUs));
        hits += j.hit ? 1 : 0;
        retries += j.attempts > 1 ? static_cast<double>(j.attempts - 1) : 0;
        replyBytes += static_cast<double>(j.replyBytes);
    }
    out.add("service.queue_wait_us_p50", quantile(queue, 0.5), "us");
    out.add("service.cache_lookup_us_p50", quantile(cache, 0.5), "us");
    out.add("service.sim_us_p50", quantile(sim, 0.5), "us");
    out.add("service.other_us_p50.hit", quantile(otherUs(p, true), 0.5),
            "us");
    out.add("service.other_us_p50.miss", quantile(otherUs(p, false), 0.5),
            "us");
    out.add("service.hit_latency_p50_ms", quantile(latencies(p, 1), 0.5),
            "ms");
    out.add("service.miss_latency_p50_ms", quantile(latencies(p, 0), 0.5),
            "ms");
    out.add("service.miss_latency_p99_ms", quantile(latencies(p, 0), 0.99),
            "ms");
    out.add("service.cache_hit_ratio", hits / n, "fraction");
    out.add("service.retries", retries, "count");
    out.add("service.journal_bytes_per_job",
            static_cast<double>(journalBytes) /
                static_cast<double>(warmJobs + plain.jobs.size() +
                                    p.jobs.size()),
            "bytes");
    out.add("service.reply_bytes_per_job", replyBytes / n, "bytes");
    reportTraced(args, spans, n, clients, p.startNs, p.endNs,
                 plain.wallSeconds() * 1e3 /
                     static_cast<double>(plain.jobs.size()),
                 out);
}

} // namespace hostbench
