#include "common/stats.h"

#include <algorithm>
#include <bit>
#include <sstream>

#include "common/json.h"
#include "common/log.h"
#include "common/serialize.h"

namespace xloops {

// ---------------------------------------------------------------------
// Histogram.
// ---------------------------------------------------------------------

unsigned
Histogram::bucketIndex(u64 value)
{
    return static_cast<unsigned>(std::bit_width(value));
}

u64
Histogram::bucketLo(unsigned index)
{
    return index == 0 ? 0 : u64{1} << (index - 1);
}

void
Histogram::sample(u64 value, u64 weight)
{
    const unsigned index = bucketIndex(value);
    if (index >= counts.size())
        counts.resize(index + 1, 0);
    counts[index] += weight;
    n += weight;
    total += value * weight;
    lo = std::min(lo, value);
    hi = std::max(hi, value);
}

double
Histogram::mean() const
{
    return n == 0 ? 0.0
                  : static_cast<double>(total) / static_cast<double>(n);
}

void
Histogram::merge(const Histogram &other)
{
    if (other.n == 0)
        return;
    if (other.counts.size() > counts.size())
        counts.resize(other.counts.size(), 0);
    for (size_t i = 0; i < other.counts.size(); i++)
        counts[i] += other.counts[i];
    n += other.n;
    total += other.total;
    lo = std::min(lo, other.lo);
    hi = std::max(hi, other.hi);
}

void
Histogram::clear()
{
    counts.clear();
    n = 0;
    total = 0;
    lo = ~u64{0};
    hi = 0;
}

std::string
Histogram::dump() const
{
    std::ostringstream os;
    os << "count=" << n << " min=" << min() << " max=" << hi
       << " mean=" << mean();
    return os.str();
}

void
Histogram::writeJson(JsonWriter &w) const
{
    w.beginObject();
    w.field("count", n);
    w.field("sum", total);
    w.field("min", min());
    w.field("max", hi);
    w.field("mean", mean());
    w.key("buckets").beginArray();
    for (const u64 c : counts)
        w.value(c);
    w.endArray();
    w.endObject();
}

void
Histogram::saveState(JsonWriter &w) const
{
    w.field("n", n);
    w.field("total", total);
    w.field("lo", lo);
    w.field("hi", hi);
    w.key("buckets");
    writeU64Array(w, counts);
}

void
Histogram::loadState(const JsonValue &v)
{
    n = v.at("n").asU64();
    total = v.at("total").asU64();
    lo = v.at("lo").asU64();
    hi = v.at("hi").asU64();
    counts = readU64Array(v.at("buckets"));
}

// ---------------------------------------------------------------------
// The catalogue and StatGroup.
// ---------------------------------------------------------------------

std::optional<Stat>
statByName(std::string_view name)
{
    const auto *first = std::begin(statCatalogue);
    const auto *last = std::end(statCatalogue);
    const auto *it = std::lower_bound(
        first, last, name,
        [](const StatInfo &info, std::string_view key) {
            return info.name < key;
        });
    if (it == last || it->name != name)
        return std::nullopt;
    return static_cast<Stat>(it - first);
}

u64
StatGroup::get(std::string_view name) const
{
    const std::optional<Stat> s = statByName(name);
    return s && statInfo(*s).kind == StatKind::Counter ? get(*s) : 0;
}

void
StatGroup::merge(const StatGroup &other)
{
    for (size_t i = 0; i < numStats; i++)
        counters[i] += other.counters[i];
    for (size_t i = 0; i < numHistograms; i++)
        histograms[i].merge(other.histograms[i]);
    present |= other.present;
}

void
StatGroup::clear()
{
    counters.fill(0);
    for (Histogram &h : histograms)
        h.clear();
    present.reset();
}

std::string
StatGroup::dump(const std::string &prefix) const
{
    std::ostringstream os;
    forEach(StatKind::Counter, [&](Stat s, const StatInfo &info) {
        os << prefix << info.name << " = " << get(s) << "\n";
    });
    forEach(StatKind::Histogram, [&](Stat s, const StatInfo &info) {
        os << prefix << info.name << " = " << hist(s).dump() << "\n";
    });
    return os.str();
}

void
StatGroup::writeJson(JsonWriter &w) const
{
    w.key("counters").beginObject();
    forEach(StatKind::Counter, [&](Stat s, const StatInfo &info) {
        w.field(info.name, get(s));
    });
    w.endObject();
    w.key("histograms").beginObject();
    forEach(StatKind::Histogram, [&](Stat s, const StatInfo &info) {
        w.key(info.name);
        hist(s).writeJson(w);
    });
    w.endObject();
}

void
StatGroup::saveState(JsonWriter &w) const
{
    w.key("counters").beginObject();
    forEach(StatKind::Counter, [&](Stat s, const StatInfo &info) {
        w.field(info.name, get(s));
    });
    w.endObject();
    w.key("histograms").beginObject();
    forEach(StatKind::Histogram, [&](Stat s, const StatInfo &info) {
        w.key(info.name).beginObject();
        hist(s).saveState(w);
        w.endObject();
    });
    w.endObject();
}

namespace {

/** The catalogue id of checkpointed entry @p name of kind @p kind. */
Stat
checkpointStat(const std::string &name, StatKind kind)
{
    const std::optional<Stat> s = statByName(name);
    if (!s || statInfo(*s).kind != kind) {
        fatal(strf("checkpoint names unknown ",
                   kind == StatKind::Counter ? "counter" : "histogram",
                   " '", name, "'"));
    }
    return *s;
}

} // namespace

void
StatGroup::loadState(const JsonValue &v)
{
    clear();
    for (const auto &[name, value] : v.at("counters").members())
        set(checkpointStat(name, StatKind::Counter), value.asU64());
    for (const auto &[name, histogram] : v.at("histograms").members()) {
        const Stat s = checkpointStat(name, StatKind::Histogram);
        histograms[histogramSlot(s)].loadState(histogram);
        present.set(static_cast<size_t>(s));
    }
}

} // namespace xloops
