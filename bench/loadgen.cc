/**
 * @file
 * loadgen — service-layer load generator and latency harness.
 *
 * Drives a fleet of concurrent clients submitting simulation jobs and
 * reports throughput (jobs/sec) and latency percentiles (p50/p99)
 * under configurable fault injection, including a fraction of
 * guaranteed-divergence specimens (lockstep + certain architectural
 * corruption) to exercise the capsule path under load.
 *
 * Two transports, same workload:
 *   --socket <path>  drive a running xloopsd over the wire protocol
 *                    (what the CI service soak uses)
 *   (no --socket)    drive an in-process Supervisor directly — the
 *                    full supervision stack minus the socket, which
 *                    is how the committed BENCH_service.json is
 *                    produced (reproducible without a daemon)
 *
 * The harness asserts the service's crash-isolation contract as it
 * goes: every job that failed with a SimError must have produced a
 * replay capsule. A violation exits 1.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/cli.h"
#include "common/json.h"
#include "common/log.h"
#include "common/metrics.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/supervisor.h"

using namespace xloops;

namespace {

struct JobResult
{
    std::string status;
    double latencyMs = 0;
    bool cached = false;
    bool hasCapsule = false;
    std::string errorKind;
    u64 attempts = 0;
    // Server-side span timings from the xloops-result-1 reply: where
    // the latency went (queueing vs cache lookup vs simulation).
    u64 queueWaitUs = 0;
    u64 cacheLookupUs = 0;
    u64 simUs = 0;
};

struct Options
{
    std::string socketPath;  ///< "" = in-process supervisor
    unsigned clients = 4;
    unsigned jobsPerClient = 8;
    std::vector<std::string> kernels = {"rgb2cmyk-uc", "dynprog-om"};
    u64 injectSeed = 1;
    double injectRate = 0.0;
    double divergenceFrac = 0.0;
    u64 deadlineMs = 0;
    std::string outDir = ".";
    /** Interleave telemetry-off and telemetry-on passes and report
     *  the best-of throughput delta. In-process only: the toggle is
     *  process-local. */
    bool telemetryOverhead = false;
    unsigned overheadReps = 3;
};

RunSpec
specForJob(const Options &opts, unsigned client, unsigned j)
{
    const unsigned index = client * opts.jobsPerClient + j;
    RunSpec spec;
    spec.kernel = opts.kernels[index % opts.kernels.size()];
    // Distinct seeds per job defeat the result cache on purpose: this
    // measures simulation throughput, not cache hit latency.
    spec.injectSeed = opts.injectSeed + index;
    spec.injectRate = opts.injectRate;

    // A deterministic stripe of jobs is guaranteed to diverge:
    // lockstep with certain architectural corruption. These must all
    // come back "failed" with a capsule.
    if (opts.divergenceFrac > 0.0) {
        const double position =
            static_cast<double>(index % 100) / 100.0;
        if (position < opts.divergenceFrac) {
            spec.lockstep = true;
            spec.injectRate = 0.0;
            spec.injectArchRate = 1.0;
        }
    }
    if (opts.deadlineMs)
        spec.deadlineMs = opts.deadlineMs;
    return spec;
}

JobResult
submitOverSocket(const Options &opts, const RunSpec &spec)
{
    ServiceClient client(opts.socketPath);
    Request req;
    req.op = "submit";
    req.job = spec;

    const auto t0 = std::chrono::steady_clock::now();
    const std::string line = client.request(encodeRequest(req));
    const auto t1 = std::chrono::steady_clock::now();

    const JsonValue v = jsonParse(line);
    JobResult r;
    r.status = v.at("status").asString();
    r.latencyMs = std::chrono::duration<double, std::milli>(t1 - t0)
                      .count();
    r.cached = v.has("cached") && v.at("cached").asBool();
    r.hasCapsule = v.has("capsule_path");
    if (v.has("error_kind"))
        r.errorKind = v.at("error_kind").asString();
    if (v.has("attempts"))
        r.attempts = v.at("attempts").asU64();
    if (v.has("queue_wait_us"))
        r.queueWaitUs = v.at("queue_wait_us").asU64();
    if (v.has("cache_lookup_us"))
        r.cacheLookupUs = v.at("cache_lookup_us").asU64();
    if (v.has("sim_us"))
        r.simUs = v.at("sim_us").asU64();
    return r;
}

JobResult
submitInProcess(Supervisor &sup, const RunSpec &spec)
{
    const auto t0 = std::chrono::steady_clock::now();
    const Admission adm = sup.submit(spec);
    JobResult r;
    if (!adm.accepted) {
        r.status = adm.reason == "overloaded" ? "overloaded"
                                              : "invalid";
        r.latencyMs = 0;
        return r;
    }
    const JobOutcome o = sup.wait(adm.jobId);
    const auto t1 = std::chrono::steady_clock::now();
    r.status = jobStatusName(o.status);
    r.latencyMs = std::chrono::duration<double, std::milli>(t1 - t0)
                      .count();
    r.cached = o.cached;
    r.hasCapsule = !o.capsulePath.empty();
    r.errorKind = o.errorKind;
    r.attempts = static_cast<u64>(o.attempts > 0 ? o.attempts : 0);
    r.queueWaitUs = o.queueWaitUs;
    r.cacheLookupUs = o.cacheLookupUs;
    r.simUs = o.simUs;
    return r;
}

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0;
    const size_t idx = static_cast<size_t>(
        p * static_cast<double>(sorted.size() - 1));
    return sorted[idx];
}

struct PassStats
{
    std::vector<JobResult> results;
    double wallSec = 0;
};

/** One full fleet run (all clients x all jobs) against a fresh
 *  in-process Supervisor, or the daemon at opts.socketPath. */
PassStats
runPass(const Options &opts)
{
    std::unique_ptr<Supervisor> localSup;
    if (opts.socketPath.empty()) {
        SupervisorConfig scfg;
        scfg.artifactDir = opts.outDir;
        localSup = std::make_unique<Supervisor>(scfg);
    }

    PassStats pass;
    std::mutex resultsMutex;
    const auto start = std::chrono::steady_clock::now();

    std::vector<std::thread> fleet;
    fleet.reserve(opts.clients);
    for (unsigned c = 0; c < opts.clients; c++) {
        fleet.emplace_back([&, c] {
            for (unsigned j = 0; j < opts.jobsPerClient; j++) {
                const RunSpec spec = specForJob(opts, c, j);
                JobResult r;
                try {
                    r = opts.socketPath.empty()
                            ? submitInProcess(*localSup, spec)
                            : submitOverSocket(opts, spec);
                } catch (const FatalError &err) {
                    r.status = "connection-error";
                    std::fprintf(stderr, "client %u: %s\n", c,
                                 err.what());
                }
                std::lock_guard<std::mutex> lock(resultsMutex);
                pass.results.push_back(r);
            }
        });
    }
    for (std::thread &t : fleet)
        t.join();
    pass.wallSec = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    return pass;
}

/** Outcome counts plus mean server-side span timings. */
struct Tally
{
    size_t done = 0, failed = 0, shed = 0, cancelled = 0, cached = 0,
           capsuled = 0, errors = 0, missingCapsules = 0, retried = 0;
    u64 attemptsTotal = 0;
    double queueWaitUsMean = 0;
    double cacheLookupUsMean = 0;
    double simUsMean = 0;
    std::vector<double> latencies;
};

Tally
tallyResults(const std::vector<JobResult> &results)
{
    Tally t;
    double queueWaitSum = 0, cacheLookupSum = 0, simSum = 0;
    for (const JobResult &r : results) {
        if (r.status == "done") {
            t.done++;
            t.cached += r.cached ? 1 : 0;
        } else if (r.status == "failed") {
            t.failed++;
            t.capsuled += r.hasCapsule ? 1 : 0;
            // Checker failures have no SimError and thus no capsule;
            // every other failure kind must have one.
            if (!r.hasCapsule && r.errorKind != "checker" &&
                r.errorKind != "fatal")
                t.missingCapsules++;
        } else if (r.status == "overloaded") {
            t.shed++;
        } else if (r.status == "cancelled") {
            t.cancelled++;
        } else {
            t.errors++;
        }
        t.attemptsTotal += r.attempts;
        t.retried += r.attempts > 1 ? 1 : 0;
        queueWaitSum += static_cast<double>(r.queueWaitUs);
        cacheLookupSum += static_cast<double>(r.cacheLookupUs);
        simSum += static_cast<double>(r.simUs);
        if (r.latencyMs > 0)
            t.latencies.push_back(r.latencyMs);
    }
    if (!results.empty()) {
        const double n = static_cast<double>(results.size());
        t.queueWaitUsMean = queueWaitSum / n;
        t.cacheLookupUsMean = cacheLookupSum / n;
        t.simUsMean = simSum / n;
    }
    std::sort(t.latencies.begin(), t.latencies.end());
    return t;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    const cli::Command cmd{
        "loadgen",
        "[options]",
        {
            cli::option("--socket", "<path>",
                        "drive a running xloopsd (default: in-process)",
                        opts.socketPath),
            cli::option("--clients", "<n>",
                        "concurrent clients (default 4)", opts.clients),
            cli::option("--jobs-per-client", "<n>",
                        "jobs per client (default 8)", opts.jobsPerClient),
            cli::option("--kernels", "<k1,k2>",
                        "kernels to cycle through", opts.kernels),
            cli::option("--inject-seed", "<n>", "base fault seed (default 1)",
                        opts.injectSeed),
            cli::option("--inject-rate", "<p>",
                        "per-opportunity fault probability",
                        opts.injectRate),
            cli::option("--divergence-frac", "<f>",
                        "fraction of jobs that are guaranteed-divergence "
                        "specimens",
                        opts.divergenceFrac),
            cli::option("--deadline-ms", "<n>", "per-job wall-clock deadline",
                        opts.deadlineMs),
            cli::toggle("--telemetry-overhead",
                        "interleave telemetry-off/on passes and report the "
                        "best-of throughput delta (in-process only)",
                        opts.telemetryOverhead),
            cli::option("--overhead-reps", "<n>",
                        "passes per setting (default 3)", opts.overheadReps),
            cli::option("--out", "<dir>",
                        "where BENCH_service.json goes (default .)",
                        opts.outDir),
        }};
    try {
        cli::parseCommandLine(cmd, argc, argv);

        benchutil::BenchReport report("service");
        report.note("transport", opts.socketPath.empty()
                                     ? "in-process"
                                     : "socket");
        report.note("inject_rate_str",
                    std::to_string(opts.injectRate));
        report.note("divergence_frac_str",
                    std::to_string(opts.divergenceFrac));

        const auto rate = [](const PassStats &p) {
            return p.wallSec > 0
                       ? static_cast<double>(p.results.size()) /
                             p.wallSec
                       : 0.0;
        };

        // Overhead mode: interleave kill-switch-off and -on passes
        // and compare best-of rates (best-of shaves scheduler noise,
        // interleaving cancels warmup drift). The switch is
        // process-local, so the comparison is only meaningful against
        // an in-process supervisor; for the true-zero baseline, build
        // with -DXLOOPS_METRICS_DISABLED (docs/OBSERVABILITY.md).
        PassStats pass;
        PassStats offPass;
        double offBestRate = 0, onBestRate = 0;
        if (opts.telemetryOverhead) {
            if (!opts.socketPath.empty())
                fatal("--telemetry-overhead is in-process only");
            for (unsigned r = 0; r < opts.overheadReps; r++) {
                metricsEnable(false);
                offPass = runPass(opts);
                offBestRate = std::max(offBestRate, rate(offPass));
                metricsEnable(true);
                pass = runPass(opts);
                onBestRate = std::max(onBestRate, rate(pass));
            }
        } else {
            pass = runPass(opts);
        }
        const Tally t = tallyResults(pass.results);

        const size_t total = pass.results.size();
        const double jobsPerSec = rate(pass);
        const double p50 = percentile(t.latencies, 0.50);
        const double p99 = percentile(t.latencies, 0.99);

        std::printf("loadgen: %zu jobs in %.2fs = %.2f jobs/sec\n",
                    total, pass.wallSec, jobsPerSec);
        std::printf(
            "  done %zu (cached %zu), failed %zu (capsuled %zu), "
            "shed %zu, cancelled %zu, errors %zu\n",
            t.done, t.cached, t.failed, t.capsuled, t.shed,
            t.cancelled, t.errors);
        std::printf("  latency p50 %.1fms p99 %.1fms\n", p50, p99);
        std::printf("  spans: queue %.0fus cache %.0fus sim %.0fus "
                    "(mean), %zu retried\n",
                    t.queueWaitUsMean, t.cacheLookupUsMean,
                    t.simUsMean, t.retried);

        report.beginRow("overall");
        report.metric("clients", opts.clients);
        report.metric("jobs", static_cast<double>(total));
        report.metric("jobs_per_sec", jobsPerSec);
        report.metric("latency_p50_ms", p50);
        report.metric("latency_p99_ms", p99);
        report.metric("done", static_cast<double>(t.done));
        report.metric("cached", static_cast<double>(t.cached));
        report.metric("failed", static_cast<double>(t.failed));
        report.metric("capsuled", static_cast<double>(t.capsuled));
        report.metric("shed", static_cast<double>(t.shed));
        report.metric("cancelled", static_cast<double>(t.cancelled));
        report.metric("retried", static_cast<double>(t.retried));
        report.metric("queue_wait_us_mean", t.queueWaitUsMean);
        report.metric("cache_lookup_us_mean", t.cacheLookupUsMean);
        report.metric("sim_us_mean", t.simUsMean);

        if (opts.telemetryOverhead) {
            const double overheadPct =
                offBestRate > 0
                    ? (offBestRate - onBestRate) / offBestRate * 100.0
                    : 0.0;
            std::printf("  telemetry: off %.2f jobs/sec, on %.2f "
                        "jobs/sec (best of %u), overhead %.2f%%\n",
                        offBestRate, onBestRate, opts.overheadReps,
                        overheadPct);
            const Tally offT = tallyResults(offPass.results);
            report.beginRow("telemetry_off");
            report.metric("jobs", static_cast<double>(
                                      offPass.results.size()));
            report.metric("jobs_per_sec", offBestRate);
            report.metric("latency_p50_ms",
                          percentile(offT.latencies, 0.50));
            report.metric("latency_p99_ms",
                          percentile(offT.latencies, 0.99));
            report.beginRow("telemetry_overhead");
            report.metric("jobs_per_sec_on", onBestRate);
            report.metric("overhead_pct", overheadPct);
            report.metric("reps", opts.overheadReps);
            if (offT.errors) {
                std::fprintf(stderr,
                             "FAILED: transport errors in the "
                             "telemetry-off pass\n");
                return 1;
            }
        }
        report.write(opts.outDir);

        if (t.missingCapsules) {
            std::fprintf(stderr,
                         "FAILED: %zu SimError failures without a "
                         "capsule\n",
                         t.missingCapsules);
            return 1;
        }
        if (t.errors) {
            std::fprintf(stderr, "FAILED: %zu transport errors\n",
                         t.errors);
            return 1;
        }
        return 0;
    } catch (const FatalError &err) {
        std::fprintf(stderr, "loadgen: %s\n", err.what());
        return 1;
    }
}
