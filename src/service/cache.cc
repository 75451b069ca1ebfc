#include "service/cache.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/json.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "system/run_spec.h"

namespace xloops {

namespace {

u64
mixString(u64 h, const std::string &s)
{
    for (const char c : s)
        h = mix64(h ^ static_cast<u8>(c));
    return mix64(h);
}

constexpr const char *cacheSchema = "xloops-cache-1";

std::string
crcHex(u32 crc)
{
    char buf[16];
    std::snprintf(buf, sizeof buf, "0x%08x", crc);
    return buf;
}

} // namespace

u64
resultCacheKey(u64 programHash, const RunSpec &spec)
{
    u64 h = mix64(programHash);
    // Kernels may share program text and differ only in their input
    // setup (ksack-sm-om and ksack-lg-om), so the name is part of the
    // key too.
    h = mixString(h, spec.kernel);
    h = mixString(h, spec.config);
    h = mixString(h, spec.mode);
    h = mix64(h ^ (spec.gpBinary ? 1 : 0));
    h = mix64(h ^ spec.maxInsts);
    h = mix64(h ^ spec.injectSeed);
    h = mixString(h, doubleBits(spec.injectRate));
    h = mixString(h, doubleBits(spec.injectArchRate));
    h = mix64(h ^ (spec.haveWatchdog ? spec.watchdogCycles + 1 : 0));
    h = mix64(h ^ (spec.lockstep ? 2 : 0));
    return h ? h : 1;
}

ResultCache::ResultCache(size_t max_entries)
    : maxEntries(max_entries ? max_entries : 1)
{
}

bool
ResultCache::lookup(u64 key, std::string &resultJson)
{
    std::function<void(u64, const std::string &)> hook;
    {
        std::lock_guard<std::mutex> lock(m);
        const auto it = entries.find(key);
        if (it == entries.end()) {
            missCount++;
            return false;
        }
        if (crc32(it->second.text) != it->second.crc) {
            // The stored text no longer matches its insert-time
            // checksum. Never serve it: preserve the evidence, drop
            // the entry, and degrade to a miss so the supervisor
            // transparently re-simulates.
            quarantine(strf("cache-entry-0x", std::hex, key, ".txt"),
                       it->second.text);
            byteCount -= it->second.text.size();
            entries.erase(it);
            corruptCount++;
            missCount++;
            hook = corruptionHook;
        } else {
            hitCount++;
            resultJson = it->second.text;
            return true;
        }
    }
    if (hook)
        hook(key, "checksum mismatch on lookup");
    return false;
}

void
ResultCache::insert(u64 key, const std::string &resultJson)
{
    std::lock_guard<std::mutex> lock(m);
    Entry e{resultJson, crc32(resultJson)};
    if (entries.emplace(key, std::move(e)).second) {
        byteCount += resultJson.size();
        insertionOrder.push_back(key);
        evictIfNeeded();
    }
}

void
ResultCache::evictIfNeeded()
{
    while (entries.size() > maxEntries && !insertionOrder.empty()) {
        const auto it = entries.find(insertionOrder.front());
        if (it != entries.end()) {
            byteCount -= it->second.text.size();
            entries.erase(it);
            evictCount++;
        }
        insertionOrder.pop_front();
    }
}

void
ResultCache::quarantine(const std::string &name, const std::string &text)
{
    if (quarantineDir.empty())
        return;
    const std::string path = strf(quarantineDir, "/", name);
    std::ofstream out(path, std::ios::binary);
    if (out) {
        out << text;
    } else {
        warn(strf("cannot quarantine corrupt cache data to ", path));
    }
}

u64
ResultCache::hits() const
{
    std::lock_guard<std::mutex> lock(m);
    return hitCount;
}

u64
ResultCache::misses() const
{
    std::lock_guard<std::mutex> lock(m);
    return missCount;
}

u64
ResultCache::evictions() const
{
    std::lock_guard<std::mutex> lock(m);
    return evictCount;
}

u64
ResultCache::bytes() const
{
    std::lock_guard<std::mutex> lock(m);
    return byteCount;
}

u64
ResultCache::corruptions() const
{
    std::lock_guard<std::mutex> lock(m);
    return corruptCount;
}

size_t
ResultCache::size() const
{
    std::lock_guard<std::mutex> lock(m);
    return entries.size();
}

void
ResultCache::setQuarantineDir(const std::string &dir)
{
    std::lock_guard<std::mutex> lock(m);
    quarantineDir = dir;
}

void
ResultCache::setCorruptionHook(
    std::function<void(u64, const std::string &)> fn)
{
    std::lock_guard<std::mutex> lock(m);
    corruptionHook = std::move(fn);
}

void
ResultCache::saveIndex(const std::string &path) const
{
    std::ostringstream out;
    {
        std::lock_guard<std::mutex> lock(m);
        JsonWriter w(out, /*pretty=*/true);
        w.beginObject();
        w.field("schema", cacheSchema);
        w.field("num_entries", static_cast<u64>(entries.size()));
        w.key("entries").beginObject();
        // Result text is stored verbatim (it is itself JSON text) so
        // a restored hit is still byte-identical to the original run;
        // the crc lets loadIndex spot bit rot entry by entry.
        for (const auto &[key, e] : entries) {
            w.key(strf("0x", std::hex, key));
            w.beginObject();
            w.field("crc", crcHex(e.crc));
            w.field("text", e.text);
            w.endObject();
        }
        w.endObject();
        w.endObject();
        out << "\n";
    }
    atomicWriteFile(path, out.str());
}

size_t
ResultCache::loadIndex(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return 0;  // cold start
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();

    std::vector<std::pair<u64, std::string>> condemned;
    size_t loaded = 0;
    try {
        const JsonValue v = jsonParse(text);
        if (v.at("schema").asString() != cacheSchema)
            fatal(strf("'", path, "' is not an ", cacheSchema, " index"));

        std::lock_guard<std::mutex> lock(m);
        for (const auto &[key, val] : v.at("entries").members()) {
            const u64 k = parseU64(key);
            Entry e;
            if (val.kind() == JsonValue::Kind::String) {
                // Legacy pre-checksum index entry: adopt it and
                // compute the checksum it never had.
                e.text = val.asString();
                e.crc = crc32(e.text);
            } else {
                e.text = val.at("text").asString();
                e.crc = static_cast<u32>(parseU64(val.at("crc").asString()));
                if (crc32(e.text) != e.crc) {
                    quarantine(strf("cache-entry-", key, ".txt"), e.text);
                    corruptCount++;
                    condemned.emplace_back(k, "checksum mismatch in index");
                    continue;
                }
            }
            if (entries.emplace(k, std::move(e)).second) {
                byteCount += entries.at(k).text.size();
                insertionOrder.push_back(k);
                loaded++;
            }
        }
        evictIfNeeded();
    } catch (const FatalError &e) {
        // A torn or rotted index must not keep the daemon down — warm
        // results are a luxury, availability is not. Preserve the
        // wreck and start cold.
        {
            std::lock_guard<std::mutex> lock(m);
            quarantine("cache-index.corrupt", text);
            corruptCount++;
        }
        warn(strf("cache index ", path, " unreadable (", e.what(),
                  "); starting cold"));
        condemned.emplace_back(0, "index unreadable");
    }

    std::function<void(u64, const std::string &)> hook;
    {
        std::lock_guard<std::mutex> lock(m);
        hook = corruptionHook;
    }
    if (hook)
        for (const auto &[k, why] : condemned)
            hook(k, why);
    return loaded;
}

} // namespace xloops
