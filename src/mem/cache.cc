#include "mem/cache.h"

#include <bit>

#include "common/json.h"
#include "common/log.h"
#include "common/serialize.h"

namespace xloops {

L1Cache::L1Cache(const CacheConfig &config) : cfg(config)
{
    if (cfg.lineBytes == 0 || (cfg.lineBytes & (cfg.lineBytes - 1)))
        fatal("cache line size must be a power of two");
    if (cfg.assoc == 0 || cfg.sizeBytes % (cfg.lineBytes * cfg.assoc) != 0)
        fatal("cache size must be a multiple of lineBytes * assoc");
    numSets = cfg.sizeBytes / (cfg.lineBytes * cfg.assoc);
    if (numSets == 0 || (numSets & (numSets - 1)))
        fatal("cache set count must be a power of two");
    lineShift = static_cast<unsigned>(std::countr_zero(cfg.lineBytes));
    setShift = static_cast<unsigned>(std::countr_zero(numSets));
    setMask = numSets - 1;
    lines.resize(static_cast<size_t>(numSets) * cfg.assoc);
}

Cycle
L1Cache::access(Addr addr, bool is_write)
{
    const u32 lineAddr = addr >> lineShift;
    const u32 set = lineAddr & setMask;
    const u32 tag = lineAddr >> setShift;
    Line *base = &lines[static_cast<size_t>(set) * cfg.assoc];
    stamp++;

    for (u32 w = 0; w < cfg.assoc; w++) {
        Line &line = base[w];
        if (line.valid && line.tag == tag) {
            line.lruStamp = stamp;
            line.dirty |= is_write;
            statGroup.add(is_write ? Stat::WriteHits : Stat::ReadHits);
            return cfg.hitLatency;
        }
    }

    // Miss: fill into the LRU way.
    Line *victim = base;
    for (u32 w = 1; w < cfg.assoc; w++) {
        if (!base[w].valid) {
            victim = &base[w];
            break;
        }
        if (base[w].lruStamp < victim->lruStamp)
            victim = &base[w];
    }
    Cycle latency = cfg.hitLatency + cfg.missPenalty;
    if (victim->valid) {
        statGroup.add(Stat::Evictions);
        if (victim->dirty) {
            statGroup.add(Stat::Writebacks);
            latency += 2;  // occupy the fill port briefly for writeback
        }
    }
    victim->valid = true;
    victim->dirty = is_write;
    victim->tag = tag;
    victim->lruStamp = stamp;
    statGroup.add(is_write ? Stat::WriteMisses : Stat::ReadMisses);
    return latency;
}

Cycle
L1Cache::access(Addr addr, bool is_write, Cycle now)
{
    const Cycle latency = access(addr, is_write);
    if (latency > cfg.hitLatency) {
        XTRACE(tracer, now, TraceComp::Mem, 0, TraceKind::CacheMiss,
               static_cast<i64>(addr), static_cast<i64>(latency));
    }
    return latency;
}

void
L1Cache::flush()
{
    for (auto &line : lines)
        line = Line{};
}

void
L1Cache::saveState(JsonWriter &w) const
{
    w.field("stamp", stamp);
    // Lines as four parallel arrays: flags packed (valid | dirty<<1),
    // then tags and LRU stamps. Compact and order-exact.
    std::vector<u64> flags, tags, lru;
    flags.reserve(lines.size());
    tags.reserve(lines.size());
    lru.reserve(lines.size());
    for (const Line &line : lines) {
        flags.push_back(static_cast<u64>(line.valid) |
                        (static_cast<u64>(line.dirty) << 1));
        tags.push_back(line.tag);
        lru.push_back(line.lruStamp);
    }
    w.key("flags");
    writeU64Array(w, flags);
    w.key("tags");
    writeU64Array(w, tags);
    w.key("lru");
    writeU64Array(w, lru);
    w.key("stats").beginObject();
    statGroup.saveState(w);
    w.endObject();
}

void
L1Cache::loadState(const JsonValue &v)
{
    stamp = v.at("stamp").asU64();
    const std::vector<u64> flags = readU64Array(v.at("flags"));
    const std::vector<u64> tags = readU64Array(v.at("tags"));
    const std::vector<u64> lru = readU64Array(v.at("lru"));
    if (flags.size() != lines.size() || tags.size() != lines.size() ||
        lru.size() != lines.size())
        fatal("checkpoint cache geometry does not match configuration");
    for (size_t i = 0; i < lines.size(); i++) {
        lines[i].valid = (flags[i] & 1) != 0;
        lines[i].dirty = (flags[i] & 2) != 0;
        lines[i].tag = static_cast<u32>(tags[i]);
        lines[i].lruStamp = lru[i];
    }
    statGroup.loadState(v.at("stats"));
}

} // namespace xloops
