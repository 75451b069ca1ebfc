#include "fuzz/harness.h"

#include <fstream>
#include <map>

#include "common/serialize.h"
#include "common/sim_error.h"
#include "frontend/frontend.h"
#include "system/capsule.h"
#include "system/system.h"

namespace xloops {

namespace {

/** Final contents of every declared array after one run (absent when
 *  the run failed). */
struct RunOutcome
{
    bool ok = false;
    FuzzFailure fail;
    std::map<std::string, std::vector<u32>> arrays;
};

RunOutcome
runOne(const Program &prog, const std::vector<ArrayDeclInfo> &arrays,
       ExecMode mode, const FuzzOptions &opts, u64 faultSeed,
       const std::string &phase, const std::string &label)
{
    RunOutcome out;
    RunSpec spec;
    spec.config = opts.configName;
    spec.mode = execModeName(mode);
    spec.maxInsts = opts.maxInsts;
    spec.lockstep = opts.lockstep;
    if (mode == ExecMode::Specialized && opts.injectRate > 0.0) {
        spec.injectSeed = faultSeed;
        spec.injectRate = opts.injectRate;
    }

    XloopsSystem sys(spec.sysConfig());
    sys.loadProgram(prog);

    CapsuleContext ctx;
    RunOptions ro;
    ro.lockstep = spec.lockstep;
    if (!opts.capsuleDir.empty())
        ro.capsule = &ctx;
    try {
        sys.run(prog, mode, spec.maxInsts, ro);
    } catch (const SimError &e) {
        if (ctx.valid) {
            writeCapsule(opts.capsuleDir + "/" + label + "-" + phase +
                             ".capsule.json",
                         spec, ctx, e, label);
        }
        out.fail = {phase, e.what()};
        return out;
    } catch (const FatalError &e) {
        out.fail = {phase, e.what()};
        return out;
    }

    for (const ArrayDeclInfo &a : arrays) {
        std::vector<u32> words;
        words.reserve(a.words);
        const Addr base = prog.symbol(a.name);
        for (unsigned i = 0; i < a.words; i++)
            words.push_back(sys.memory().readWord(base + 4 * i));
        out.arrays.emplace(a.name, std::move(words));
    }
    out.ok = true;
    return out;
}

void
compareArrays(const RunOutcome &ref, const RunOutcome &got,
              const std::string &phase, FuzzVerdict &v)
{
    for (const auto &[name, refWords] : ref.arrays) {
        const auto it = got.arrays.find(name);
        if (it == got.arrays.end())
            continue;  // fission build dropped nothing; belt only
        for (size_t i = 0;
             i < refWords.size() && i < it->second.size(); i++) {
            if (refWords[i] != it->second[i]) {
                v.failures.push_back(
                    {phase, strf(name, "[", i, "]: reference=",
                                 static_cast<i32>(refWords[i]),
                                 " got=",
                                 static_cast<i32>(it->second[i]))});
                return;  // first mismatch is enough
            }
        }
    }
}

/** Compare analyzer verdicts against an expected vector. */
void
checkTruths(const std::vector<LoopReport> &reports,
            const std::vector<std::string> &expected,
            const std::string &phase, FuzzVerdict &v)
{
    if (reports.size() != expected.size()) {
        v.failures.push_back(
            {phase, strf("expected ", expected.size(), " loops, found ",
                         reports.size())});
        return;
    }
    for (size_t i = 0; i < reports.size(); i++) {
        if (reports[i].selection != expected[i]) {
            v.failures.push_back(
                {phase, strf("loop ", i, " (iv ", reports[i].iv,
                             "): expected ", expected[i], ", got ",
                             reports[i].selection)});
        }
    }
}

} // namespace

FuzzVerdict
checkProgram(const GenProgram &program, const FuzzOptions &opts)
{
    FuzzVerdict v;
    const u64 faultSeed =
        opts.injectSeed ? opts.injectSeed
                        : mix64(program.seed ? program.seed : 0x5eed);

    FrontendModule parsed;
    try {
        parsed = parseModule(program.source);
    } catch (const FrontendError &e) {
        v.failures.push_back({"parse", e.what()});
        return v;
    }

    if (opts.checkTruth) {
        checkTruths(reportLoops(parsed.topLevel), program.truths,
                    "truth", v);
        if (!v.ok())
            return v;
    }

    FrontendOptions plain;
    plain.fission = false;
    CompiledModule cm;
    try {
        cm = compileModule(parsed, plain);
    } catch (const FatalError &e) {
        v.failures.push_back({"compile", e.what()});
        return v;
    }

    const RunOutcome trad =
        runOne(cm.program, cm.module.arrays, ExecMode::Traditional,
               opts, faultSeed, "trad", program.name);
    if (!trad.ok)
        v.failures.push_back(trad.fail);
    const RunOutcome spec =
        runOne(cm.program, cm.module.arrays, ExecMode::Specialized,
               opts, faultSeed, "spec", program.name);
    if (!spec.ok)
        v.failures.push_back(spec.fail);
    if (trad.ok && spec.ok)
        compareArrays(trad, spec, "compare", v);

    if (program.useFission && opts.checkFission) {
        FrontendOptions fopt;
        fopt.fission = true;
        CompiledModule fm;
        try {
            fm = compileModule(parsed, fopt);
        } catch (const FatalError &e) {
            v.failures.push_back({"fission-compile", e.what()});
            return v;
        }
        if (opts.checkTruth)
            checkTruths(fm.loops, program.fissionTruths,
                        "fission-truth", v);
        const RunOutcome ftrad =
            runOne(fm.program, fm.module.arrays, ExecMode::Traditional,
                   opts, faultSeed, "fission-trad", program.name);
        if (!ftrad.ok)
            v.failures.push_back(ftrad.fail);
        const RunOutcome fspec =
            runOne(fm.program, fm.module.arrays, ExecMode::Specialized,
                   opts, faultSeed, "fission-spec", program.name);
        if (!fspec.ok)
            v.failures.push_back(fspec.fail);
        // Fission must preserve serial semantics (fissioned
        // traditional vs the unfissioned reference) and specialized
        // execution of the fissioned binary must match in turn.
        if (trad.ok && ftrad.ok)
            compareArrays(trad, ftrad, "fission-semantics", v);
        if (ftrad.ok && fspec.ok)
            compareArrays(ftrad, fspec, "fission-compare", v);
    }
    return v;
}

CorpusCase
loadCorpusFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot read corpus file: " + path);
    CorpusCase c;
    c.path = path;
    std::string line;
    std::ostringstream all;
    const auto trim = [](const std::string &s) {
        const size_t b = s.find_first_not_of(" \t\r");
        return b == std::string::npos
                   ? std::string()
                   : s.substr(b, s.find_last_not_of(" \t\r") - b + 1);
    };
    const auto splitList = [&](const std::string &rest) {
        std::vector<std::string> items;
        std::string item;
        std::istringstream ss(rest);
        while (std::getline(ss, item, ','))
            if (item = trim(item); !item.empty())
                items.push_back(item);
        return items;
    };
    while (std::getline(in, line)) {
        all << line << "\n";
        if (line.rfind("//!", 0) != 0)
            continue;
        const std::string body = line.substr(3);
        const size_t colon = body.find(':');
        if (colon == std::string::npos)
            continue;
        const std::string key = trim(body.substr(0, colon));
        const std::string rest = body.substr(colon + 1);
        if (key == "expect")
            c.expect = splitList(rest);
        else if (key == "fission-expect")
            c.fissionExpect = splitList(rest);
        else if (key == "options") {
            for (const std::string &opt : splitList(rest)) {
                if (opt == "fission")
                    c.fission = true;
                else
                    fatal(path + ": unknown //! option: " + opt);
            }
        } else if (key == "seed") {
            c.seed = parseU64(trim(rest), path + ": //! seed");
        }
        // unknown keys are ignored (forward compatibility)
    }
    c.source = all.str();
    if (c.expect.empty())
        fatal(path + ": missing //! expect: directive");
    if (c.fission && c.fissionExpect.empty())
        fatal(path + ": fission option without //! fission-expect:");
    return c;
}

FuzzVerdict
checkCorpusCase(const CorpusCase &c, const FuzzOptions &opts)
{
    GenProgram p;
    const size_t slash = c.path.find_last_of('/');
    p.name = slash == std::string::npos ? c.path
                                        : c.path.substr(slash + 1);
    p.source = c.source;
    p.truths = c.expect;
    p.useFission = c.fission;
    p.fissionTruths = c.fissionExpect;
    FuzzOptions o = opts;
    o.injectSeed = c.seed;
    return checkProgram(p, o);
}

} // namespace xloops
