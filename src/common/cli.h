/**
 * @file
 * The command line of every tool and experiment harness, declared as
 * a table.
 *
 * A tool lists its options as Flag rows (name, metavariable, help,
 * action). parseCommandLine walks argv against the rows and usage()
 * renders `--help` from the same rows, so the help text cannot drift
 * from what the parser accepts. The walk owns the rules every tool
 * shares: `--help`/`-h`, unrecognized flags and missing arguments
 * (the usage on stderr, then a FatalError => exit 1), positional
 * arguments, comma lists, and strict numbers (parseU64/parseDouble,
 * the flag named in the error). A tool keeps only its post-parse
 * checks.
 *
 * There is one syntax: `-x value` / `--name value`, exact names, no
 * `--name=value` and no abbreviations.
 */

#ifndef XLOOPS_COMMON_CLI_H
#define XLOOPS_COMMON_CLI_H

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "common/types.h"

namespace xloops::cli {

/** One command-line option. */
struct Flag
{
    std::string name;  ///< "-o", "--jobs"
    std::string arg;   ///< metavariable ("<n>"); empty for a switch
    std::string help;
    /** Applies the flag to its argument ("" for a switch); throws
     *  FatalError on a value it cannot take. */
    std::function<void(const std::string &value)> apply;
};

/** A switch that sets @p on. */
Flag toggle(const std::string &name, const std::string &help, bool &on);

/** Options that store their argument. Numbers parse strictly and
 *  name the flag when malformed; a list splits on commas, drops
 *  empty items and must not end up empty. */
Flag option(const std::string &name, const std::string &arg,
            const std::string &help, std::string &out);
Flag option(const std::string &name, const std::string &arg,
            const std::string &help, u64 &out);
Flag option(const std::string &name, const std::string &arg,
            const std::string &help, unsigned &out);
Flag option(const std::string &name, const std::string &arg,
            const std::string &help, double &out);
Flag option(const std::string &name, const std::string &arg,
            const std::string &help, std::vector<std::string> &out);

/** A tool's whole command line. */
struct Command
{
    std::string name;      ///< the usage line reads "usage: <name> ..."
    std::string synopsis;  ///< what follows the name: "[options] file"
    std::vector<Flag> flags{};
    std::string epilog{};  ///< printed after the rows (exit codes)
    /** Receives each argument that is not a flag; when empty, such an
     *  argument is rejected like an unrecognized flag. */
    std::function<void(const std::string &)> positional{};
};

/** The synopsis, one line per row plus `--help`, and the epilog. */
std::string usage(const Command &cmd);

/** Print the usage to stderr, then fail with @p msg (exit 1). */
[[noreturn]] void usageError(const Command &cmd, const std::string &msg);

/** The flags a command line named, for post-parse checks. */
struct Parsed
{
    std::set<std::string> given;

    bool has(const std::string &flag) const
    {
        return given.count(flag) != 0;
    }
};

/**
 * Walk argv, applying each row in order. `--help`/`-h` prints the
 * usage to stdout and exits 0. An unrecognized flag or a flag
 * missing its argument prints the usage to stderr and throws
 * FatalError; so does a value its row rejects, without the usage.
 */
Parsed parseCommandLine(const Command &cmd, int argc, char **argv);

} // namespace xloops::cli

#endif // XLOOPS_COMMON_CLI_H
