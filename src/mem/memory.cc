#include "mem/memory.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>

#include "common/json.h"
#include "common/log.h"
#include "common/serialize.h"

namespace xloops {

u8 *
MainMemory::pageFor(u32 pageNum)
{
    auto &page = pages[pageNum];
    if (!page)
        page = std::make_unique<u8[]>(pageSize);  // zero-filled, once
    return page.get();
}

u32
MainMemory::amoCompute(Op op, u32 old, u32 operand)
{
    switch (op) {
      case Op::AMOADD: return old + operand;
      case Op::AMOAND: return old & operand;
      case Op::AMOOR: return old | operand;
      case Op::AMOXOR: return old ^ operand;
      case Op::AMOSWAP: return operand;
      case Op::AMOMIN:
        return static_cast<i32>(old) < static_cast<i32>(operand) ? old
                                                                 : operand;
      case Op::AMOMAX:
        return static_cast<i32>(old) > static_cast<i32>(operand) ? old
                                                                 : operand;
      default:
        panic("amoCompute on non-amo opcode");
    }
}

u32
MainMemory::amo(Op op, Addr addr, u32 operand)
{
    const u32 old = read(addr, 4);
    write(addr, 4, amoCompute(op, old, operand));
    return old;
}

float
MainMemory::readFloat(Addr addr)
{
    const u32 v = read(addr, 4);
    float f;
    std::memcpy(&f, &v, 4);
    return f;
}

void
MainMemory::writeFloat(Addr addr, float value)
{
    u32 v;
    std::memcpy(&v, &value, 4);
    write(addr, 4, v);
}

void
MainMemory::loadBytes(Addr base, const std::vector<u8> &bytes)
{
    // Resolve each page the blob touches once, not once per byte. A
    // whole page of zeros bound for a page nothing has touched is
    // skipped: that page already reads as zero, and zero bytes add
    // nothing to the digest or a checkpoint.
    for (size_t i = 0; i < bytes.size();) {
        const Addr addr = base + static_cast<Addr>(i);
        const Addr off = addr & pageMask;
        const size_t n = std::min<size_t>(pageSize - off, bytes.size() - i);
        if (n == pageSize && !pages.contains(addr >> pageBits) &&
            std::all_of(&bytes[i], &bytes[i] + n,
                        [](u8 b) { return b == 0; })) {
            i += n;
            continue;
        }
        u8 *page = lookupPage(addr);
        for (size_t j = 0; j < n; j++) {
            u8 &ob = page[off + j];
            const u8 nb = bytes[i + j];
            if (ob != nb) {
                const Addr a = addr + static_cast<Addr>(j);
                dig ^= byteContrib(a, ob) ^ byteContrib(a, nb);
                ob = nb;
            }
        }
        i += n;
    }
}

void
MainMemory::copyFrom(const MainMemory &other)
{
    pages.clear();
    translations.fill(Translation{});
    pages.reserve(other.pages.size());
    for (const auto &[pageNum, page] : other.pages) {
        // Overwritten in full by the memcpy: no zero-fill first.
        auto copy = std::make_unique_for_overwrite<u8[]>(pageSize);
        std::memcpy(copy.get(), page.get(), pageSize);
        pages.emplace(pageNum, std::move(copy));
    }
    dig = other.dig;
}

Addr
MainMemory::firstDifference(const MainMemory &a, const MainMemory &b)
{
    std::vector<u32> pageNums;
    for (const auto &[pageNum, page] : a.pages)
        pageNums.push_back(pageNum);
    for (const auto &[pageNum, page] : b.pages)
        if (!a.pages.count(pageNum))
            pageNums.push_back(pageNum);
    std::sort(pageNums.begin(), pageNums.end());

    static const u8 zeros[pageSize] = {};
    for (const u32 pageNum : pageNums) {
        const auto ita = a.pages.find(pageNum);
        const auto itb = b.pages.find(pageNum);
        const u8 *pa = ita == a.pages.end() ? zeros : ita->second.get();
        const u8 *pb = itb == b.pages.end() ? zeros : itb->second.get();
        if (std::memcmp(pa, pb, pageSize) == 0)
            continue;
        for (Addr off = 0; off < pageSize; off++)
            if (pa[off] != pb[off])
                return (static_cast<Addr>(pageNum) << pageBits) | off;
    }
    return ~Addr{0};
}

void
MainMemory::saveState(JsonWriter &w) const
{
    char digBuf[24];
    std::snprintf(digBuf, sizeof digBuf, "0x%016llx",
                  static_cast<unsigned long long>(dig));
    w.field("digest", std::string(digBuf));

    std::vector<std::pair<u32, const u8 *>> sorted;
    sorted.reserve(pages.size());
    for (const auto &[pageNum, page] : pages)
        sorted.emplace_back(pageNum, page.get());
    std::sort(sorted.begin(), sorted.end());

    // One entry per 64 KiB wire unit, whatever the storage page size:
    // the unit's bytes up to its last nonzero one, so all-zero units
    // (indistinguishable from untouched ones) are omitted.
    constexpr unsigned unitShift = unitBits - pageBits;
    w.key("pages").beginObject();
    std::vector<u8> unit;
    for (size_t i = 0; i < sorted.size();) {
        const u32 unitNum = sorted[i].first >> unitShift;
        unit.clear();
        for (; i < sorted.size() && sorted[i].first >> unitShift == unitNum;
             i++) {
            const u8 *page = sorted[i].second;
            size_t len = pageSize;
            while (len > 0 && page[len - 1] == 0)
                len--;
            if (len == 0)
                continue;
            const size_t start = static_cast<size_t>(sorted[i].first &
                                                     ((1u << unitShift) - 1))
                                 << pageBits;
            unit.resize(start + len);  // zero-fills any untouched gap
            std::memcpy(unit.data() + start, page, len);
        }
        if (unit.empty())
            continue;
        char key[16];
        std::snprintf(key, sizeof key, "0x%x", unitNum);
        w.field(key, hexEncode(unit.data(), unit.size()));
    }
    w.endObject();
}

void
MainMemory::loadState(const JsonValue &v)
{
    pages.clear();
    translations.fill(Translation{});
    dig = 0;
    std::set<u64> units;
    for (const auto &[key, blob] : v.at("pages").members()) {
        const u64 unitNum = parseU64(key);
        if (unitNum > (~Addr{0} >> unitBits))
            fatal(strf("checkpoint page key '", key,
                       "' lies outside the 32-bit address space"));
        if (!units.insert(unitNum).second)
            fatal(strf("checkpoint page key '", key, "' repeats a page"));
        const std::vector<u8> bytes = hexDecode(blob.asString());
        if (bytes.size() > unitSize)
            fatal(strf("checkpoint page ", key, " exceeds page size"));
        const Addr base = static_cast<Addr>(unitNum) << unitBits;
        for (size_t i = 0; i < bytes.size(); i++)
            dig ^= byteContrib(base + static_cast<Addr>(i), bytes[i]);
        for (size_t off = 0; off < bytes.size(); off += pageSize) {
            u8 *page = pageFor((base + static_cast<Addr>(off)) >> pageBits);
            std::memcpy(page, bytes.data() + off,
                        std::min<size_t>(pageSize, bytes.size() - off));
        }
    }
    const u64 expect = parseU64(v.at("digest").asString());
    if (dig != expect)
        fatal(strf("checkpoint memory digest mismatch: stored ",
                   v.at("digest").asString(), ", recomputed 0x", std::hex,
                   dig));
}

} // namespace xloops
