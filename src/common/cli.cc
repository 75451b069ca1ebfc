#include "common/cli.h"

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/log.h"
#include "common/serialize.h"

namespace xloops::cli {

Flag
toggle(const std::string &name, const std::string &help, bool &on)
{
    return {name, "", help, [&on](const std::string &) { on = true; }};
}

Flag
option(const std::string &name, const std::string &arg,
       const std::string &help, std::string &out)
{
    return {name, arg, help, [&out](const std::string &v) { out = v; }};
}

Flag
option(const std::string &name, const std::string &arg,
       const std::string &help, u64 &out)
{
    return {name, arg, help,
            [name, &out](const std::string &v) { out = parseU64(v, name); }};
}

Flag
option(const std::string &name, const std::string &arg,
       const std::string &help, unsigned &out)
{
    return {name, arg, help, [name, &out](const std::string &v) {
                const u64 n = parseU64(v, name);
                if (n > UINT_MAX)
                    fatal(strf(name, ": number out of range '", v, "'"));
                out = static_cast<unsigned>(n);
            }};
}

Flag
option(const std::string &name, const std::string &arg,
       const std::string &help, double &out)
{
    return {name, arg, help, [name, &out](const std::string &v) {
                out = parseDouble(v, name);
            }};
}

Flag
option(const std::string &name, const std::string &arg,
       const std::string &help, std::vector<std::string> &out)
{
    return {name, arg, help, [name, &out](const std::string &v) {
                out.clear();
                std::istringstream items(v);
                std::string item;
                while (std::getline(items, item, ','))
                    if (!item.empty())
                        out.push_back(item);
                if (out.empty())
                    fatal(name + ": empty list");
            }};
}

std::string
usage(const Command &cmd)
{
    std::vector<std::pair<std::string, std::string>> rows;
    for (const Flag &f : cmd.flags)
        rows.emplace_back(f.arg.empty() ? f.name : f.name + " " + f.arg,
                          f.help);
    rows.emplace_back("--help", "print this usage and exit");
    size_t width = 0;
    for (const auto &row : rows)
        width = std::max(width, row.first.size());

    // Help text wraps at 79 columns (keeping at least 30 for it),
    // continuation lines aligned under the help column.
    const size_t indent = width + 4;
    const size_t room = 79 - std::min<size_t>(indent, 49);
    std::string out = strf("usage: ", cmd.name, " ", cmd.synopsis, "\n");
    for (const auto &[head, help] : rows) {
        out += "  " + head + std::string(indent - 2 - head.size(), ' ');
        size_t col = 0;
        std::istringstream words(help);
        std::string word;
        while (words >> word) {
            if (col != 0 && col + 1 + word.size() > room) {
                out += "\n" + std::string(indent, ' ');
                col = 0;
            } else if (col != 0) {
                out += ' ';
                col++;
            }
            out += word;
            col += word.size();
        }
        out += "\n";
    }
    return out + cmd.epilog;
}

void
usageError(const Command &cmd, const std::string &msg)
{
    std::fputs(usage(cmd).c_str(), stderr);
    fatal(msg);
}

Parsed
parseCommandLine(const Command &cmd, int argc, char **argv)
{
    Parsed parsed;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(usage(cmd).c_str(), stdout);
            std::exit(0);
        }
        const auto row =
            std::find_if(cmd.flags.begin(), cmd.flags.end(),
                         [&](const Flag &f) { return f.name == arg; });
        if (row == cmd.flags.end()) {
            // A typo'd option must not silently become a positional
            // (an --inject-seed typo would run un-injected).
            if (!cmd.positional || (!arg.empty() && arg[0] == '-'))
                usageError(cmd, "unknown option '" + arg + "'");
            cmd.positional(arg);
            continue;
        }
        if (!row->arg.empty() && i + 1 >= argc)
            usageError(cmd, arg + " needs an argument");
        row->apply(row->arg.empty() ? std::string() : argv[++i]);
        parsed.given.insert(arg);
    }
    return parsed;
}

} // namespace xloops::cli
