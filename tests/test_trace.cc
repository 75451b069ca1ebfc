// Observability subsystem: the tracer, the per-loop profiler, and the
// JSON pipeline must observe without perturbing — stats are
// byte-identical with observers on or off, trace emission is monotone
// in cycle, squash/replay events pair up, and the per-loop stall
// breakdown attributes every lane-cycle exactly once.

#include <gtest/gtest.h>

#include <sstream>

#include "asm/assembler.h"
#include "common/json.h"
#include "common/log.h"
#include "common/loop_profile.h"
#include "common/sim_error.h"
#include "common/trace.h"
#include "kernels/kernel.h"

namespace xloops {
namespace {

// --------------------------------------------------------------------
// Histogram bucket math
// --------------------------------------------------------------------

TEST(HistogramBuckets, BoundaryMath)
{
    // Bucket 0 holds value 0; bucket k >= 1 holds [2^(k-1), 2^k).
    EXPECT_EQ(Histogram::bucketIndex(0), 0u);
    EXPECT_EQ(Histogram::bucketIndex(1), 1u);
    EXPECT_EQ(Histogram::bucketIndex(2), 2u);
    EXPECT_EQ(Histogram::bucketIndex(3), 2u);
    EXPECT_EQ(Histogram::bucketIndex(4), 3u);
    EXPECT_EQ(Histogram::bucketIndex(7), 3u);
    EXPECT_EQ(Histogram::bucketIndex(8), 4u);
    EXPECT_EQ(Histogram::bucketIndex(1023), 10u);
    EXPECT_EQ(Histogram::bucketIndex(1024), 11u);
    // The top bucket: [2^63, 2^64).
    EXPECT_EQ(Histogram::bucketIndex((u64{1} << 63) - 1), 63u);
    EXPECT_EQ(Histogram::bucketIndex(u64{1} << 63), 64u);
    EXPECT_EQ(Histogram::bucketIndex(~u64{0}), 64u);

    EXPECT_EQ(Histogram::bucketLo(0), 0u);
    EXPECT_EQ(Histogram::bucketLo(1), 1u);
    EXPECT_EQ(Histogram::bucketLo(2), 2u);
    EXPECT_EQ(Histogram::bucketLo(3), 4u);
    EXPECT_EQ(Histogram::bucketLo(11), 1024u);
    EXPECT_EQ(Histogram::bucketLo(64), u64{1} << 63);

    // Every value lands in the bucket whose range contains it.
    for (u64 v : {u64{0}, u64{1}, u64{5}, u64{16}, u64{100}, u64{65536},
                  u64{1} << 63, ~u64{0}}) {
        const unsigned b = Histogram::bucketIndex(v);
        EXPECT_GE(v, Histogram::bucketLo(b));
        if (b > 0 && b < 64)
            EXPECT_LT(v, Histogram::bucketLo(b + 1));
    }
}

TEST(HistogramBuckets, SampleStatistics)
{
    Histogram h;
    h.sample(0);
    h.sample(3);
    h.sample(5, 2);  // weighted
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.sum(), 13u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 5u);
    EXPECT_DOUBLE_EQ(h.mean(), 13.0 / 4.0);
    ASSERT_GE(h.buckets().size(), 4u);
    EXPECT_EQ(h.buckets()[0], 1u);  // the 0
    EXPECT_EQ(h.buckets()[2], 1u);  // the 3
    EXPECT_EQ(h.buckets()[3], 2u);  // the weighted 5

    Histogram other;
    other.sample(100);
    h.merge(other);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.max(), 100u);
}

// --------------------------------------------------------------------
// JSON serializer (shared by --stats-json and the bench reporter)
// --------------------------------------------------------------------

TEST(Json, EscapeRoundTrip)
{
    const std::string nasty =
        "plain \"quoted\" back\\slash \n\t\r ctrl:\x01 utf8: \xc3\xa9";
    EXPECT_EQ(jsonUnescape(jsonEscape(nasty)), nasty);
    EXPECT_EQ(jsonEscape("\""), "\\\"");
    EXPECT_EQ(jsonEscape("\\"), "\\\\");
    EXPECT_EQ(jsonUnescape("\\u0041"), "A");
}

TEST(Json, WriterProducesValidSortedOutput)
{
    std::ostringstream os;
    JsonWriter w(os, /*pretty=*/false);
    w.beginObject();
    w.field("alpha", u64{42});
    w.field("beta", "va\"lue");
    w.key("list").beginArray().value(1).value(2).endArray();
    w.field("neg", i64{-7});
    w.field("pi", 3.25);
    w.field("yes", true);
    w.endObject();
    EXPECT_TRUE(jsonValidate(os.str())) << os.str();
    EXPECT_NE(os.str().find("\"va\\\"lue\""), std::string::npos);
}

TEST(Json, ValidatorRejectsMalformed)
{
    EXPECT_TRUE(jsonValidate("{\"a\": [1, 2.5, -3, null, true, \"x\"]}"));
    EXPECT_FALSE(jsonValidate("{\"a\": }"));
    EXPECT_FALSE(jsonValidate("{\"a\": 1,}"));
    EXPECT_FALSE(jsonValidate("[1, 2"));
    EXPECT_FALSE(jsonValidate("{\"a\": 1} trailing"));
    EXPECT_FALSE(jsonValidate(""));
    // Malformed numbers and a raw control character inside a string:
    // one grammar, so jsonParse (which decodes every outside document)
    // rejects exactly what the validator does.
    for (const char *bad :
         {"+5", "1.2.3", "-", "1e", "--1", "[1, 2.5.1]",
          "{\"max_insts\": 1-2}", "\"a\tb\""}) {
        EXPECT_FALSE(jsonValidate(bad)) << bad;
        EXPECT_THROW(jsonParse(bad), FatalError) << bad;
    }
    EXPECT_TRUE(jsonValidate("[0, -0.5, 1e9, 2E-3, 1.5e+2, \"a\\tb\"]"));
}

// --------------------------------------------------------------------
// Trace semantics on real kernel runs
// --------------------------------------------------------------------

struct TracedRun
{
    Tracer tracer;
    LoopProfiler profiler;
    KernelRun run;

    TracedRun(const std::string &kernel, const SysConfig &cfg,
              ExecMode mode)
    {
        tracer.enable();
        RunHooks hooks;
        hooks.tracer = &tracer;
        hooks.profiler = &profiler;
        run = runKernel(kernelByName(kernel), cfg, mode, false, hooks);
        EXPECT_TRUE(run.passed) << run.error;
    }
};

TEST(Trace, EmissionIsMonotoneInCycle)
{
    TracedRun t("dynprog-om", configs::ioX(), ExecMode::Specialized);
    ASSERT_GT(t.tracer.size(), 0u);
    Cycle prev = 0;
    for (size_t i = 0; i < t.tracer.size(); i++) {
        const TraceEvent &ev = t.tracer.at(i);
        EXPECT_GE(ev.cycle, prev)
            << "event " << i << " (" << traceEventLine(ev)
            << ") went back in time";
        prev = ev.cycle;
    }
    // The render is valid JSON even for a large event stream.
    std::ostringstream os;
    t.tracer.writeChromeJson(os);
    EXPECT_TRUE(jsonValidate(os.str()));
}

TEST(Trace, SquashReplayPairing)
{
    // dynprog-om squashes naturally under memory-order speculation.
    TracedRun t("dynprog-om", configs::ioX(), ExecMode::Specialized);

    u64 squashes = 0, replays = 0;
    std::vector<bool> pending(16, false);
    for (size_t i = 0; i < t.tracer.size(); i++) {
        const TraceEvent &ev = t.tracer.at(i);
        if (ev.comp != TraceComp::Lane)
            continue;
        if (ev.kind == TraceKind::Squash) {
            squashes++;
            pending[ev.index] = true;
        } else if (ev.kind == TraceKind::Replay) {
            replays++;
            // A replay is only legal while its lane has a squash open.
            EXPECT_TRUE(pending[ev.index])
                << "unpaired replay: " << traceEventLine(ev);
            pending[ev.index] = false;
        }
    }
    ASSERT_GT(squashes, 0u) << "kernel no longer squashes; pick another";
    EXPECT_GT(replays, 0u);
    // Every replay closes a squash; squashes can outnumber replays
    // only via re-squash before re-issue or end-of-loop cancellation.
    EXPECT_LE(replays, squashes);
    EXPECT_EQ(squashes,
              t.run.result.stats.get(Stat::Squashes));
}

TEST(Trace, StallBreakdownSumsToLaneCycles)
{
    const SysConfig cfg = configs::ioX();
    for (const char *kernel : {"dynprog-om", "sha-or", "rgb2cmyk-uc"}) {
        TracedRun t(kernel, cfg, ExecMode::Specialized);
        ASSERT_FALSE(t.profiler.loops().empty());
        for (const auto &[pc, p] : t.profiler.loops()) {
            // Exactly one attribution per lane per engine cycle.
            EXPECT_EQ(p.busyCycles + p.totalStallCycles(),
                      static_cast<Cycle>(cfg.lpsu.lanes) * p.engineCycles)
                << kernel << " loop 0x" << std::hex << pc;
            EXPECT_EQ(p.iterCycles.count(), p.specIters);
            EXPECT_GT(p.invocations, 0u);
        }
    }
}

TEST(Trace, RingBufferDropsOldestButKeepsCount)
{
    Tracer tiny(16);  // the constructor's minimum capacity
    tiny.enable();
    for (unsigned i = 0; i < 20; i++)
        tiny.emit(i, TraceComp::Sys, 0, TraceKind::Commit, i, 0);
    EXPECT_EQ(tiny.size(), 16u);
    EXPECT_EQ(tiny.totalEmitted(), 20u);
    EXPECT_EQ(tiny.dropped(), 4u);
    // Oldest-first: the survivors are events 4..19.
    EXPECT_EQ(tiny.at(0).a0, 4);
    EXPECT_EQ(tiny.at(15).a0, 19);
    const auto last2 = tiny.lastEvents(2);
    ASSERT_EQ(last2.size(), 2u);
    EXPECT_EQ(last2[0].a0, 18);
    EXPECT_EQ(last2[1].a0, 19);
}

// --------------------------------------------------------------------
// Observer neutrality
// --------------------------------------------------------------------

TEST(ObserverNeutrality, StatsAreByteIdenticalWithTracingOn)
{
    for (const ExecMode mode :
         {ExecMode::Specialized, ExecMode::Adaptive}) {
        const Kernel &k = kernelByName("dynprog-om");
        const SysConfig cfg = configs::ioX();

        const KernelRun plain = runKernel(k, cfg, mode);

        Tracer tracer;
        tracer.enable();
        LoopProfiler profiler;
        RunHooks hooks;
        hooks.tracer = &tracer;
        hooks.profiler = &profiler;
        const KernelRun observed = runKernel(k, cfg, mode, false, hooks);

        EXPECT_TRUE(plain.passed && observed.passed);
        EXPECT_EQ(plain.result.cycles, observed.result.cycles);
        EXPECT_EQ(plain.result.stats.dump(), observed.result.stats.dump())
            << "observers must not perturb statistics";
        EXPECT_GT(tracer.totalEmitted(), 0u);
    }
}

TEST(ObserverNeutrality, DisabledTracerEmitsNothing)
{
    Tracer tracer;  // never enabled
    LoopProfiler profiler;
    RunHooks hooks;
    hooks.tracer = &tracer;
    hooks.profiler = &profiler;
    const KernelRun run = runKernel(kernelByName("dynprog-om"),
                                    configs::ioX(), ExecMode::Specialized,
                                    false, hooks);
    EXPECT_TRUE(run.passed);
    EXPECT_EQ(tracer.totalEmitted(), 0u);
    // The profiler still rolls up (it is gated separately).
    EXPECT_FALSE(profiler.loops().empty());
}

// --------------------------------------------------------------------
// Post-mortem integration
// --------------------------------------------------------------------

TEST(Snapshot, EmbedsRecentTraceEvents)
{
    // A 1-cycle watchdog trips mid-loop; with a tracer attached the
    // machine snapshot carries the last events for the post-mortem.
    SysConfig cfg = configs::ioX();
    cfg.lpsu.watchdogCycles = 1;
    const Kernel &k = kernelByName("dynprog-om");
    const Program prog = assemble(k.source);
    XloopsSystem sys(cfg);
    sys.loadProgram(prog);
    if (k.setup)
        k.setup(sys.memory(), prog);
    Tracer tracer;
    tracer.enable();
    sys.setObserver(&tracer, nullptr);
    try {
        sys.run(prog, ExecMode::Specialized);
        FAIL() << "watchdog never fired";
    } catch (const SimError &error) {
        EXPECT_EQ(error.kind(), SimErrorKind::Watchdog);
        EXPECT_FALSE(error.snapshot().recentEvents.empty());
        const std::string what = error.what();
        EXPECT_NE(what.find("trace"), std::string::npos);
    }
}

} // namespace
} // namespace xloops
