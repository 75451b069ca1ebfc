// The stat catalogue and StatGroup: docs/STATS.md agrees with
// XLOOPS_STAT_LIST row for row, presence bits follow writes (not
// values) through merge, JSON and checkpoints, and a checkpoint that
// names a statistic outside the catalogue is rejected.

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "common/json.h"
#include "common/log.h"
#include "common/stats.h"

namespace xloops {
namespace {

/** "| a | b |" → {"a", "b"} (cells trimmed). */
std::vector<std::string>
tableCells(const std::string &line)
{
    std::vector<std::string> cells;
    std::istringstream in(line.substr(1));
    std::string cell;
    while (std::getline(in, cell, '|')) {
        const auto b = cell.find_first_not_of(' ');
        const auto e = cell.find_last_not_of(' ');
        cells.push_back(b == std::string::npos ? ""
                                               : cell.substr(b, e - b + 1));
    }
    return cells;
}

/** The doc row each catalogue entry must have. */
std::string
expectedRow(const StatInfo &info)
{
    return strf("| `", info.name, "` | ",
                info.kind == StatKind::Counter ? "counter" : "histogram",
                " | ", info.unit, " | ", info.group, " | ",
                info.description, " |");
}

TEST(StatCatalogue, DocsMatchTheCatalogue)
{
    std::ifstream doc(XLOOPS_STATS_DOC);
    ASSERT_TRUE(doc) << "cannot read " << XLOOPS_STATS_DOC;
    // name -> (kind, unit, group, description) as documented.
    std::map<std::string, std::vector<std::string>> rows;
    std::string line;
    while (std::getline(doc, line)) {
        if (line.rfind("| `", 0) != 0)
            continue;
        std::vector<std::string> cells = tableCells(line);
        ASSERT_EQ(cells.size(), 5u) << line;
        const std::string name = cells[0].substr(1, cells[0].size() - 2);
        EXPECT_TRUE(rows.emplace(name, cells).second)
            << "duplicate row for " << name;
    }
    for (const StatInfo &info : statCatalogue) {
        const auto it = rows.find(std::string(info.name));
        if (it == rows.end()) {
            ADD_FAILURE() << "docs/STATS.md has no row for " << info.name
                          << "; add:\n" << expectedRow(info);
            continue;
        }
        const std::vector<std::string> &c = it->second;
        EXPECT_EQ(c[1], info.kind == StatKind::Counter ? "counter"
                                                       : "histogram")
            << info.name;
        EXPECT_EQ(c[2], info.unit) << info.name;
        EXPECT_EQ(c[3], info.group) << info.name;
        EXPECT_EQ(c[4], info.description)
            << info.name << "; expected row:\n" << expectedRow(info);
        rows.erase(it);
    }
    for (const auto &[name, cells] : rows)
        ADD_FAILURE() << "docs/STATS.md documents " << name
                      << ", which is not in XLOOPS_STAT_LIST";
}

TEST(StatCatalogue, NamesResolveToTheirIds)
{
    for (size_t i = 0; i < numStats; i++) {
        const Stat s = static_cast<Stat>(i);
        const auto found = statByName(statInfo(s).name);
        ASSERT_TRUE(found) << statInfo(s).name;
        EXPECT_EQ(*found, s);
    }
    EXPECT_EQ(statInfo(Stat::LpsuExecCycles).name, "lpsu_exec_cycles");
    EXPECT_EQ(statInfo(Stat::IterCycles).kind, StatKind::Histogram);
    EXPECT_FALSE(statByName("no_such_counter"));
    EXPECT_FALSE(statByName(""));
    EXPECT_FALSE(statByName("zzz"));
}

TEST(StatGroup, PresenceFollowsWritesNotValues)
{
    StatGroup g;
    EXPECT_EQ(g.dump(), "");
    g.add(Stat::SquashCycles, 0);  // a squash in an iteration's first cycle
    g.set(Stat::Cycles, 0);
    EXPECT_EQ(g.dump(), "cycles = 0\nsquash_cycles = 0\n");

    StatGroup other;
    other.add(Stat::Squashes, 2);
    other.sample(Stat::IterCycles, 5);
    g.merge(other);
    EXPECT_EQ(g.get(Stat::Squashes), 2u);
    EXPECT_EQ(g.hist(Stat::IterCycles).count(), 1u);
    EXPECT_EQ(g.get("squashes"), 2u);
    EXPECT_EQ(g.get("no_such_counter"), 0u);

    std::ostringstream json;
    {
        JsonWriter w(json, /*pretty=*/false);
        w.beginObject();
        g.writeJson(w);
        w.endObject();
    }
    EXPECT_EQ(json.str(),
              "{\"counters\":{\"cycles\":0,\"squash_cycles\":0,"
              "\"squashes\":2},\"histograms\":{\"iter_cycles\":"
              "{\"count\":1,\"sum\":5,\"min\":5,\"max\":5,\"mean\":5,"
              "\"buckets\":[0,0,0,1]}}}");

    g.clear();
    EXPECT_EQ(g.dump(), "");
}

/** saveState text of @p g, as a checkpoint would carry it. */
std::string
saved(const StatGroup &g)
{
    std::ostringstream out;
    JsonWriter w(out, /*pretty=*/false);
    w.beginObject();
    g.saveState(w);
    w.endObject();
    return out.str();
}

TEST(StatGroup, CheckpointRoundTripKeepsPresence)
{
    StatGroup g;
    g.add(Stat::SquashCycles, 0);
    g.add(Stat::LaneExecCycles, 7);
    g.sample(Stat::IterCycles, 0);
    g.sample(Stat::IterCycles, 1u << 20);
    const std::string text = saved(g);

    StatGroup restored;
    restored.add(Stat::Scans);  // cleared by the load
    restored.loadState(jsonParse(text));
    EXPECT_EQ(saved(restored), text);
    EXPECT_EQ(restored.dump(), g.dump());

    // An empty histogram that was checkpointed stays present.
    const std::string emptyHist =
        "{\"counters\":{},\"histograms\":{\"iter_cycles\":{\"n\":0,"
        "\"total\":0,\"lo\":18446744073709551615,\"hi\":0,"
        "\"buckets\":[]}}}";
    StatGroup empty;
    empty.loadState(jsonParse(emptyHist));
    EXPECT_EQ(saved(empty), emptyHist);
}

TEST(StatGroup, CheckpointWithUnknownNameIsRejected)
{
    StatGroup g;
    try {
        g.loadState(jsonParse(
            "{\"counters\":{\"no_such_counter\":1},\"histograms\":{}}"));
        FAIL() << "accepted an unknown counter";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "unknown counter 'no_such_counter'"),
                  std::string::npos)
            << e.what();
    }
    // A histogram under "counters", or a counter under "histograms",
    // is as unknown as a misspelt name.
    EXPECT_THROW(g.loadState(jsonParse(
                     "{\"counters\":{\"iter_cycles\":1},\"histograms\":{}}")),
                 FatalError);
    EXPECT_THROW(
        g.loadState(jsonParse(
            "{\"counters\":{},\"histograms\":{\"squashes\":{\"n\":0,"
            "\"total\":0,\"lo\":0,\"hi\":0,\"buckets\":[]}}}")),
        FatalError);
}

} // namespace
} // namespace xloops
