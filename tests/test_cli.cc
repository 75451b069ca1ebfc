// The command-line table (common/cli.h) every tool parses through,
// and RunSpec's shared rows (runSpecFlags): argument walking, the
// errors, strict numbers, positionals, comma lists, the rendered
// usage, and the seed-without-rate default.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/log.h"
#include "system/run_spec.h"

namespace xloops {
namespace {

/** Parse @p args (argv[0] is supplied) against @p cmd. */
cli::Parsed
parse(const cli::Command &cmd, std::vector<std::string> args)
{
    args.insert(args.begin(), cmd.name);
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    return cli::parseCommandLine(cmd, static_cast<int>(args.size()),
                                 argv.data());
}

/** The FatalError message of parsing @p args, without fatal()'s
 *  "fatal: " prefix ("" if it parses). */
std::string
parseError(const cli::Command &cmd, const std::vector<std::string> &args)
{
    try {
        parse(cmd, args);
    } catch (const FatalError &err) {
        return std::string(err.what()).substr(std::strlen("fatal: "));
    }
    return "";
}

struct Knobs
{
    u64 count = 7;
    unsigned jobs = 0;
    double rate = 0.0;
    bool verbose = false;
    std::string out;
    std::vector<std::string> list = {"dflt"};
    std::vector<std::string> files;

    cli::Command
    command()
    {
        cli::Command cmd{
            "tool",
            "[options] file...",
            {
                cli::option("--count", "<n>", "how many", count),
                cli::option("--jobs", "<n>", "worker threads", jobs),
                cli::option("--rate", "<p>", "a probability", rate),
                cli::toggle("-v", "be chatty", verbose),
                cli::option("-o", "<file>", "where to write", out),
                cli::option("--list", "<a,b>", "comma list", list),
            },
            "exit codes: 0 fine\n"};
        cmd.positional = [this](const std::string &f) {
            files.push_back(f);
        };
        return cmd;
    }
};

TEST(Cli, AppliesRowsAndPositionalsInOrder)
{
    Knobs k;
    const cli::Parsed given =
        parse(k.command(), {"a.s", "--count", "0x10", "-v", "--rate",
                            "0.25", "b.s", "-o", "x.json", "--jobs", "3"});
    EXPECT_EQ(k.count, 16u);
    EXPECT_EQ(k.jobs, 3u);
    EXPECT_DOUBLE_EQ(k.rate, 0.25);
    EXPECT_TRUE(k.verbose);
    EXPECT_EQ(k.out, "x.json");
    EXPECT_EQ(k.files, (std::vector<std::string>{"a.s", "b.s"}));
    EXPECT_TRUE(given.has("--count"));
    EXPECT_TRUE(given.has("-v"));
    EXPECT_FALSE(given.has("--list"));
    EXPECT_EQ(k.list, (std::vector<std::string>{"dflt"}));
}

TEST(Cli, MissingArgumentAndUnknownFlagFail)
{
    Knobs k;
    EXPECT_EQ(parseError(k.command(), {"--count"}),
              "--count needs an argument");
    EXPECT_EQ(parseError(k.command(), {"--frobnicate"}),
              "unknown option '--frobnicate'");
    // A near miss is not an abbreviation, and --name=value is not
    // a spelling.
    EXPECT_EQ(parseError(k.command(), {"--coun", "3"}),
              "unknown option '--coun'");
    EXPECT_EQ(parseError(k.command(), {"--count=3"}),
              "unknown option '--count=3'");

    // Without a positional handler a bare word is an unknown option.
    cli::Command strict = k.command();
    strict.positional = nullptr;
    EXPECT_EQ(parseError(strict, {"a.s"}), "unknown option 'a.s'");
}

TEST(Cli, NumbersAreStrictAndNameTheFlag)
{
    Knobs k;
    EXPECT_EQ(parseError(k.command(), {"--count", "1x"}),
              "--count: malformed number '1x'");
    EXPECT_EQ(parseError(k.command(), {"--count", "-1"}),
              "--count: malformed number '-1'");
    EXPECT_EQ(parseError(k.command(), {"--count", " 5"}),
              "--count: malformed number ' 5'");
    EXPECT_EQ(parseError(k.command(), {"--rate", "abc"}),
              "--rate: malformed number 'abc'");
    EXPECT_EQ(parseError(k.command(), {"--rate", "inf"}),
              "--rate: malformed number 'inf'");
    EXPECT_EQ(parseError(k.command(), {"--jobs", "4294967296"}),
              "--jobs: number out of range '4294967296'");
    EXPECT_EQ(parseError(k.command(), {"--jobs", "4294967295"}), "");
    EXPECT_EQ(k.count, 7u);  // failed parses leave the default alone
}

TEST(Cli, CommaListsDropEmptyItemsButNotEverything)
{
    Knobs k;
    parse(k.command(), {"--list", "a,,b,"});
    EXPECT_EQ(k.list, (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(parseError(k.command(), {"--list", ","}),
              "--list: empty list");
}

TEST(Cli, UsageIsRenderedFromTheRows)
{
    Knobs k;
    const std::string text = cli::usage(k.command());
    EXPECT_EQ(text.rfind("usage: tool [options] file...\n", 0), 0u)
        << text;
    for (const char *line :
         {"  --count <n>   how many\n", "  -v            be chatty\n",
          "  --list <a,b>  comma list\n",
          "  --help        print this usage and exit\n"})
        EXPECT_NE(text.find(line), std::string::npos) << line << text;
    EXPECT_EQ(text.substr(text.size() - 19), "exit codes: 0 fine\n");
}

TEST(Cli, HelpPrintsTheUsageAndExitsZero)
{
    Knobs k;
    EXPECT_EXIT(parse(k.command(), {"-v", "--help", "--frobnicate"}),
                ::testing::ExitedWithCode(0), "");
}

TEST(Cli, RunSpecRowsApplyTheRateDefaultOnlyToABareSeed)
{
    const auto parseSpec = [](const std::vector<std::string> &args) {
        RunSpec spec;
        const cli::Command cmd{"run", "[options]", runSpecFlags(spec)};
        finishRunSpecFlags(spec, parse(cmd, args));
        return spec;
    };
    const RunSpec seeded = parseSpec({"-k", "dynprog-om", "--inject-seed",
                                      "7", "-m", "T", "-c", "ooo/2+x"});
    EXPECT_EQ(seeded.kernel, "dynprog-om");
    EXPECT_EQ(seeded.mode, "T");
    EXPECT_EQ(seeded.config, "ooo/2+x");
    EXPECT_EQ(seeded.injectSeed, 7u);
    EXPECT_EQ(seeded.injectRate, defaultInjectRate);

    EXPECT_EQ(parseSpec({"--inject-seed", "7", "--inject-rate", "0"})
                  .injectRate,
              0.0);
    EXPECT_EQ(parseSpec({"--inject-rate", "0.5"}).injectRate, 0.5);
    EXPECT_EQ(parseSpec({}).injectRate, 0.0);

    const RunSpec watched =
        parseSpec({"--watchdog-cycles", "0", "--lockstep",
                   "--inject-arch-rate", "1", "--inject-seed", "1"});
    EXPECT_TRUE(watched.haveWatchdog);
    EXPECT_EQ(watched.watchdogCycles, 0u);
    EXPECT_TRUE(watched.lockstep);
    EXPECT_EQ(watched.injectArchRate, 1.0);
    EXPECT_FALSE(parseSpec({}).haveWatchdog);
}

} // namespace
} // namespace xloops
