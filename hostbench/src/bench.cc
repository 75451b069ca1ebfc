#include "bench.h"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/json.h"
#include "system/system.h"

namespace hostbench {

u64
nowNs()
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
secondsSince(u64 startNs)
{
    return static_cast<double>(nowNs() - startNs) * 1e-9;
}

u64
cpuNs(int pid)
{
    clockid_t clock = CLOCK_PROCESS_CPUTIME_ID;
    if (pid && clock_getcpuclockid(pid, &clock) != 0)
        return 0;
    timespec ts{};
    if (clock_gettime(clock, &ts) != 0)
        return 0;
    return static_cast<u64>(ts.tv_sec) * 1000000000ULL +
           static_cast<u64>(ts.tv_nsec);
}

double
stealSeconds()
{
    // "cpu user nice system idle iowait irq softirq steal ..."
    std::ifstream in("/proc/stat");
    std::string cpu;
    u64 field[8] = {};
    in >> cpu;
    for (u64 &f : field)
        in >> f;
    if (!in || cpu != "cpu")
        return 0;
    return static_cast<double>(field[7]) /
           static_cast<double>(sysconf(_SC_CLK_TCK));
}

u64
Rng::next()
{
    u64 z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

u64
fnv1a(std::string_view text, u64 h)
{
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
    }
    return h;
}

std::string
resultDigest(u64 cycles, u64 gppInsts, u64 laneInsts,
             const std::string &statsJson)
{
    std::ostringstream head;
    head << cycles << '|' << gppInsts << '|' << laneInsts << '|';
    const u64 h = fnv1a(statsJson, fnv1a(head.str()));
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
medianWindowRate(const std::vector<u64> &doneNs, u64 startNs, u64 endNs,
                 double windowSeconds)
{
    const u64 width = static_cast<u64>(windowSeconds * 1e9);
    const size_t windows = (endNs - startNs) / width;
    if (windows == 0)
        return static_cast<double>(doneNs.size()) /
               (static_cast<double>(endNs - startNs) * 1e-9);
    std::vector<double> counts(windows, 0.0);
    for (const u64 t : doneNs) {
        const size_t w = (t - startNs) / width;
        if (t >= startNs && w < windows)
            counts[w] += 1;
    }
    return quantile(counts, 0.5) / windowSeconds;
}

double
peakRssMb(int pid)
{
    const std::string path = pid ? "/proc/" + std::to_string(pid) +
                                       "/status"
                                 : "/proc/self/status";
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0;
}

void
Outcome::fail(const std::string &why)
{
    failed++;
    if (failures.size() < 8)
        failures.push_back(why);
}

void
Reference::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read reference " + path);
    std::stringstream ss;
    ss << in.rdbuf();
    const xloops::JsonValue doc = xloops::jsonParse(ss.str());
    if (!doc.has("schema") ||
        doc.at("schema").asString() != "hostbench-digests-1")
        throw std::runtime_error(path + ": not a hostbench digest file");
    digests.clear();
    for (const auto &[key, value] : doc.at("digests").members())
        digests[key] = value.asString();
    // Fault-seeded runs: one string per spec, the 16-hex-digit digest
    // of seed index i at offset 16 i.
    for (const auto &[key, value] : doc.at("fault_digests").members()) {
        const std::string &all = value.asString();
        for (size_t i = 0; i + 16 <= all.size(); i += 16)
            digests[key + "|f" + std::to_string(missFaultSeed(i / 16))] =
                all.substr(i, 16);
    }
}

std::string
Reference::find(const std::string &key) const
{
    const auto it = digests.find(key);
    return it == digests.end() ? "" : it->second;
}

std::string
cellKey(const std::string &kernel, const std::string &config,
        const std::string &mode, bool gpBinary, u64 injectSeed)
{
    std::string key = kernel + "|" + config + "|" + mode +
                      (gpBinary ? "|gp" : "|xl");
    if (injectSeed)
        key += "|f" + std::to_string(injectSeed);
    return key;
}

SimCounts &
SimCounts::operator+=(const SimCounts &o)
{
    gppInsts += o.gppInsts;
    laneInsts += o.laneInsts;
    cycles += o.cycles;
    lpsuCycles += o.lpsuCycles;
    simulatedInsts += o.simulatedInsts;
    return *this;
}

SimCounts
simCounts(const xloops::SysResult &res)
{
    SimCounts s;
    s.gppInsts = static_cast<double>(res.gppInsts);
    s.laneInsts = static_cast<double>(res.laneInsts);
    s.cycles = static_cast<double>(res.cycles);
    s.lpsuCycles = static_cast<double>(res.stats.get("lpsu_exec_cycles"));
    s.simulatedInsts = s.gppInsts + s.laneInsts;
    return s;
}

namespace {

thread_local std::vector<u32> openStack;
thread_local u32 threadIndex = 0;
std::atomic<u32> nextThreadIndex{1};

u32
currentThread()
{
    if (threadIndex == 0)
        threadIndex = nextThreadIndex.fetch_add(1);
    return threadIndex;
}

} // namespace

u32
Spans::open()
{
    std::lock_guard<std::mutex> lock(m);
    const u32 id = nextId++;
    openStack.push_back(id);
    return id;
}

u64
Spans::close(u32 id, const std::string &name, u64 startNs, u64 request,
             bool layer, double work, const SimCounts &sim)
{
    const u64 endNs = nowNs();
    if (!openStack.empty() && openStack.back() == id)
        openStack.pop_back();
    const u32 parent = openStack.empty() ? 0 : openStack.back();
    std::lock_guard<std::mutex> lock(m);
    records.push_back({name, startNs, endNs, id, parent, request,
                       currentThread(), layer, work, sim});
    return endNs - startNs;
}

void
Spans::record(const std::string &name, u64 startNs, u64 endNs, u32 parent,
              u64 request)
{
    std::lock_guard<std::mutex> lock(m);
    records.push_back({name, startNs, endNs, nextId++, parent, request,
                       currentThread(), true, 0, {}});
}

Spans::Total &
Spans::Total::operator+=(const Total &o)
{
    ns += o.ns;
    work += o.work;
    count += o.count;
    sim += o.sim;
    return *this;
}

Spans::Total
Spans::total(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(m);
    Total t;
    for (const Record &r : records) {
        if (!name.empty() && r.name != name)
            continue;
        t.ns += static_cast<double>(r.endNs - r.startNs);
        t.work += r.work;
        t.count++;
        t.sim += r.sim;
    }
    return t;
}

double
Spans::uncoveredPct(unsigned threads, u64 fromNs, u64 toNs) const
{
    std::lock_guard<std::mutex> lock(m);
    if (toNs <= fromNs || threads == 0)
        return 100.0;
    double covered = 0;
    for (const Record &r : records) {
        const u64 s = std::max(r.startNs, fromNs);
        const u64 e = std::min(r.endNs, toNs);
        if (r.layer && s < e)
            covered += static_cast<double>(e - s);
    }
    const double window =
        static_cast<double>(toNs - fromNs) * static_cast<double>(threads);
    return std::max(0.0, 100.0 * (window - covered) / window);
}

void
Spans::writeChrome(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(m);
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write trace " + path);
    u64 origin = ~0ULL;
    for (const Record &r : records)
        origin = std::min(origin, r.startNs);
    out << "{\"traceEvents\":[\n";
    bool first = true;
    char buf[128];
    for (const Record &r : records) {
        out << (first ? "" : ",\n");
        first = false;
        std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f",
                      static_cast<double>(r.startNs - origin) * 1e-3,
                      static_cast<double>(r.endNs - r.startNs) * 1e-3);
        out << "{\"name\":\"" << xloops::jsonEscape(r.name)
            << "\",\"cat\":\"host\",\"ph\":\"X\",\"pid\":1,\"tid\":"
            << r.thread << "," << buf << ",\"args\":{\"id\":" << r.id
            << ",\"parent\":" << r.parent << ",\"request\":" << r.request
            << "}}";
    }
    out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

void
reportTraced(const Args &args, const Spans &spans, double ops,
             unsigned threads, u64 tStart, u64 tEnd, double untracedMsPerOp,
             Outcome &out)
{
    const double wall = static_cast<double>(tEnd - tStart) * 1e-9;
    const SimCounts sim = spans.total().sim;
    out.add("sim.gpp_insts", sim.gppInsts / ops, "count");
    out.add("sim.lane_insts", sim.laneInsts / ops, "count");
    out.add("sim.cycles", sim.cycles / ops, "count");
    out.add("sim.lpsu_exec_cycles", sim.lpsuCycles / ops, "count");
    out.add("sim.minst_per_s", sim.simulatedInsts / wall * 1e-6, "Minst/s");
    const double tracedMsPerOp = wall * 1e3 / ops;
    out.add("trace_overhead_pct",
            100.0 * (tracedMsPerOp - untracedMsPerOp) / untracedMsPerOp,
            "%");
    out.add("trace.uncovered_pct", spans.uncoveredPct(threads, tStart, tEnd),
            "%");
    spans.writeChrome(args.runDir + "/trace-" + args.workload + ".json");
}

Span::Span(Spans &spans_, std::string name_, u64 request_, bool layer_)
    : spans(spans_), name(std::move(name_)), request(request_),
      layer(layer_), id(spans.open()), startNs(nowNs())
{
}

Span::~Span()
{
    if (open)
        close();
}

u64
Span::close(double work, const SimCounts &sim)
{
    open = false;
    return spans.close(id, name, startNs, request, layer, work, sim);
}

const std::vector<std::pair<std::string, std::string>> &
endToEndCatalogue()
{
    static const std::vector<std::pair<std::string, std::string>> c = {
        {"ops_per_s", "1/s"},
        {"cpu_ms_per_op", "ms"},
        {"latency_p50_ms", "ms"},
        {"latency_p90_ms", "ms"},
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
    };
    return c;
}

const std::vector<std::pair<std::string, std::string>> &
perLayerCatalogue()
{
    static const std::vector<std::pair<std::string, std::string>> c = [] {
        std::vector<std::pair<std::string, std::string>> v;
        for (const char *mode : {"T", "S", "A"})
            for (const char *host : {"io", "ooo2", "ooo4"})
                v.push_back({std::string("system.run_ns_per_inst.") +
                                 mode + "." + host,
                             "ns/inst"});
        const std::vector<std::pair<std::string, std::string>> rest = {
            {"system.run_ns_per_lpsu_cycle", "ns/cycle"},
            {"system.lockstep_run_ns_per_inst.T", "ns/inst"},
            {"system.lockstep_run_ns_per_inst.S", "ns/inst"},
            {"system.build_us", "us"},
            {"system.report_us", "us"},
            {"system.report_bytes", "bytes"},
            {"asm.assemble_us", "us"},
            {"kernels.setup_us", "us"},
            {"kernels.validate_us", "us"},
            {"cpu.golden_ns_per_inst", "ns/inst"},
            {"energy.model_us", "us"},
            {"fuzz.generate_us", "us"},
            {"frontend.parse_us", "us"},
            {"frontend.analyze_us", "us"},
            {"compiler.compile_us", "us"},
            {"common.pool_util", "fraction"},
            {"service.queue_wait_us_p50", "us"},
            {"service.cache_lookup_us_p50", "us"},
            {"service.sim_us_p50", "us"},
            {"service.other_us_p50.hit", "us"},
            {"service.other_us_p50.miss", "us"},
            {"service.hit_latency_p50_ms", "ms"},
            {"service.miss_latency_p50_ms", "ms"},
            {"service.miss_latency_p99_ms", "ms"},
            {"service.cache_hit_ratio", "fraction"},
            {"service.retries", "count"},
            {"service.journal_bytes_per_job", "bytes"},
            {"service.reply_bytes_per_job", "bytes"},
            {"sim.gpp_insts", "count"},
            {"sim.lane_insts", "count"},
            {"sim.cycles", "count"},
            {"sim.lpsu_exec_cycles", "count"},
            {"sim.minst_per_s", "Minst/s"},
            {"trace_overhead_pct", "%"},
            {"trace.uncovered_pct", "%"},
        };
        v.insert(v.end(), rest.begin(), rest.end());
        return v;
    }();
    return c;
}

void
completeMetrics(Outcome &out, bool traced)
{
    const auto &catalogue =
        traced ? perLayerCatalogue() : endToEndCatalogue();
    std::map<std::string, Metric> have;
    for (const Metric &m : out.metrics)
        have[m.name] = m;
    std::vector<Metric> ordered;
    for (const auto &[name, unit] : catalogue) {
        const auto it = have.find(name);
        if (it != have.end() && it->second.unit != unit)
            throw std::logic_error("metric " + name + " has unit " +
                                   it->second.unit + ", catalogue " +
                                   unit);
        ordered.push_back(it != have.end() ? it->second
                                           : Metric{name, 0.0, unit});
        if (it != have.end())
            have.erase(it);
    }
    if (!have.empty())
        throw std::logic_error("metric outside the catalogue: " +
                               have.begin()->first);
    out.metrics = std::move(ordered);
}

namespace {

std::string
number(double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

void
printResult(const Outcome &out)
{
    std::ostringstream s;
    s << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << out.attempted
      << ", \"failed\": " << out.failed << ", \"metrics\": {";
    for (size_t i = 0; i < out.metrics.size(); i++) {
        const Metric &m = out.metrics[i];
        s << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
          << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    }
    s << "}}";
    std::printf("%s\n", s.str().c_str());
    std::fflush(stdout);
}

void
printSummary(const Args &args, const Outcome &out, double stealPct)
{
    std::fprintf(stderr, "hostbench %s seed=%llu seconds=%g trace=%d\n",
                 args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed), args.seconds,
                 args.trace ? 1 : 0);
    std::fprintf(stderr, "  %-40s %llu\n", "attempted",
                 static_cast<unsigned long long>(out.attempted));
    std::fprintf(stderr, "  %-40s %llu\n", "failed",
                 static_cast<unsigned long long>(out.failed));
    std::fprintf(stderr, "  %-40s %.6g\n", "failed_frac",
                 out.attempted ? static_cast<double>(out.failed) /
                                     static_cast<double>(out.attempted)
                               : 0.0);
    for (const Metric &m : out.metrics)
        std::fprintf(stderr, "  %-40s %.6g %s\n", m.name.c_str(), m.value,
                     m.unit.c_str());
    std::fprintf(stderr, "  %-40s %.3g %%\n", "host_steal", stealPct);
    for (const std::string &why : out.failures)
        std::fprintf(stderr, "  FAILED: %s\n", why.c_str());
}

} // namespace hostbench
