// Memory substrate tests: sparse paging, endianness, alignment, AMOs,
// and the L1 cache timing model.

#include <gtest/gtest.h>

#include <sstream>

#include "common/json.h"
#include "common/log.h"
#include "common/rng.h"
#include "mem/cache.h"
#include "mem/memory.h"

namespace xloops {
namespace {

TEST(MainMemory, ZeroInitialized)
{
    MainMemory mem;
    EXPECT_EQ(mem.readWord(0x1000), 0u);
    EXPECT_EQ(mem.read(0xdeadbee0, 1), 0u);
}

TEST(MainMemory, LittleEndianBytes)
{
    MainMemory mem;
    mem.writeWord(0x100, 0x11223344);
    EXPECT_EQ(mem.read(0x100, 1), 0x44u);
    EXPECT_EQ(mem.read(0x101, 1), 0x33u);
    EXPECT_EQ(mem.read(0x102, 2), 0x1122u);
}

TEST(MainMemory, SubWordWrites)
{
    MainMemory mem;
    mem.write(0x200, 1, 0xaa);
    mem.write(0x201, 1, 0xbb);
    mem.write(0x202, 2, 0xccdd);
    EXPECT_EQ(mem.readWord(0x200), 0xccddbbaau);
}

// A blob loaded across 4 KiB and 64 KiB page boundaries, over bytes
// already written, equals the same bytes written one at a time.
TEST(MainMemory, CrossPageBlob)
{
    std::vector<u8> blob(9000);
    for (size_t i = 0; i < blob.size(); i++)
        blob[i] = static_cast<u8>(i * 7 + 1);
    blob[100] = 0;
    const Addr base = (1u << 16) - 4096 - 50;
    MainMemory bulk, bytewise;
    bulk.writeWord(0xf000, 0xdeadbeef);
    bytewise.writeWord(0xf000, 0xdeadbeef);
    bulk.loadBytes(base, blob);
    for (size_t i = 0; i < blob.size(); i++)
        bytewise.write(base + static_cast<Addr>(i), 1, blob[i]);
    for (size_t i = 0; i < blob.size(); i++)
        ASSERT_EQ(bulk.read(base + static_cast<Addr>(i), 1), blob[i]) << i;
    EXPECT_EQ(bulk.digest(), bytewise.digest());
    EXPECT_EQ(MainMemory::firstDifference(bulk, bytewise), ~Addr{0});
}

// A whole page of zeros bound for an untouched page allocates nothing
// (a large .space costs no memory at load), while zeros loaded over
// nonzero bytes still clear them.
TEST(MainMemory, ZeroPagesAllocateNothing)
{
    MainMemory mem;
    mem.loadBytes(0x100000, std::vector<u8>(1u << 20, 0));
    EXPECT_EQ(mem.pageCount(), 0u);
    EXPECT_EQ(mem.digest(), 0u);

    // Only the partial pages at either end of an unaligned span.
    MainMemory part;
    part.loadBytes(0x100010, std::vector<u8>(3 * 4096, 0));
    EXPECT_EQ(part.pageCount(), 2u);
    EXPECT_EQ(MainMemory::firstDifference(part, mem), ~Addr{0});

    MainMemory cleared;
    cleared.loadBytes(0x200000, std::vector<u8>(2 * 4096, 0xff));
    EXPECT_NE(cleared.digest(), 0u);
    cleared.loadBytes(0x200000, std::vector<u8>(2 * 4096, 0));
    EXPECT_EQ(cleared.pageCount(), 2u);
    EXPECT_EQ(cleared.digest(), 0u);
    EXPECT_EQ(MainMemory::firstDifference(cleared, mem), ~Addr{0});
    EXPECT_EQ(cleared.readWord(0x200000), 0u);
    EXPECT_EQ(cleared.readWord(0x201ffc), 0u);
}

// A flat byte array is the reference model. The window spans 48 4 KiB
// pages across a 64 KiB unit boundary, so pages 16 apart share a
// translation-cache slot and random accesses keep evicting each other.
TEST(MainMemory, MatchesFlatReferenceModel)
{
    constexpr Addr base = 0x0f8000;
    constexpr Addr span = 48 * 4096;
    std::vector<u8> ref(span, 0);
    MainMemory mem;
    Rng rng(7);
    for (int n = 0; n < 200000; n++) {
        const unsigned size = 1u << rng.nextBelow(3);
        const Addr off = rng.nextBelow(span / size) * size;
        if (rng.nextBelow(2) == 0) {
            const u32 value = static_cast<u32>(rng.next());
            mem.write(base + off, size, value);
            for (unsigned i = 0; i < size; i++)
                ref[off + i] = static_cast<u8>(value >> (8 * i));
        } else {
            u32 expect = 0;
            for (unsigned i = 0; i < size; i++)
                expect |= static_cast<u32>(ref[off + i]) << (8 * i);
            ASSERT_EQ(mem.read(base + off, size), expect)
                << "op " << n << " at 0x" << std::hex << base + off;
        }
    }
    for (Addr off = 0; off < span; off++)
        ASSERT_EQ(mem.read(base + off, 1), ref[off]) << off;
    MainMemory flat;
    flat.loadBytes(base, ref);
    EXPECT_EQ(mem.digest(), flat.digest());
    EXPECT_EQ(MainMemory::firstDifference(mem, flat), ~Addr{0});
}

TEST(MainMemory, CopyThenDivergeNamesFirstDifference)
{
    MainMemory a;
    for (Addr addr = 0x1000; addr < 0x9000; addr += 4)
        a.writeWord(addr, addr * 3 + 1);
    a.writeWord(0x100000, 42);
    MainMemory b;
    b.writeWord(0x500, 9);  // dropped by the copy
    b.copyFrom(a);
    EXPECT_EQ(a.digest(), b.digest());
    EXPECT_EQ(MainMemory::firstDifference(a, b), ~Addr{0});
    EXPECT_EQ(b.readWord(0x500), 0u);
    EXPECT_EQ(b.readWord(0x7ffc), a.readWord(0x7ffc));

    b.write(0x8001, 1, 0x77);
    b.write(0x2002, 1, 0x66);
    EXPECT_NE(a.digest(), b.digest());
    EXPECT_EQ(MainMemory::firstDifference(a, b), 0x2002u);
    b.write(0x2002, 1, a.read(0x2002, 1));
    EXPECT_EQ(MainMemory::firstDifference(a, b), 0x8001u);
    b.write(0x8001, 1, a.read(0x8001, 1));
    EXPECT_EQ(a.digest(), b.digest());
    EXPECT_EQ(MainMemory::firstDifference(a, b), ~Addr{0});

    // A page only one side holds compares as zeros.
    b.write(0x300001, 1, 5);
    EXPECT_EQ(MainMemory::firstDifference(a, b), 0x300001u);
    EXPECT_NE(a.digest(), b.digest());
    b.write(0x300001, 1, 0);
    EXPECT_EQ(a.digest(), b.digest());
}

std::string
saveText(const MainMemory &mem)
{
    std::ostringstream os;
    JsonWriter w(os, /*pretty=*/false);
    w.beginObject();
    mem.saveState(w);
    w.endObject();
    return os.str();
}

// saveState -> loadState -> saveState is the identity on the text:
// a unit with a zero first page, a zero gap between pages, trailing
// zeros, a touched but all-zero page and a unit at the top of memory.
TEST(MainMemory, SaveLoadSaveRoundTrip)
{
    MainMemory mem;
    mem.writeWord(0x1000, 0x11);
    mem.writeWord(0x3ff8, 0x22000000);
    mem.writeWord(0x100000, 0x33);
    mem.writeWord(0x10fff0, 0x44);
    mem.write(0x250000, 1, 0);  // touched, still zero: no entry
    mem.writeWord(0xfffffffc, 0x55);
    const std::string text = saveText(mem);
    EXPECT_EQ(text.find("\"0x25\""), std::string::npos) << text;
    EXPECT_NE(text.find("\"0xffff\""), std::string::npos) << text;

    MainMemory back;
    back.loadState(jsonParse(text));
    EXPECT_EQ(back.digest(), mem.digest());
    EXPECT_EQ(MainMemory::firstDifference(mem, back), ~Addr{0});
    EXPECT_EQ(saveText(back), text);
}

// A unit key names addr >> 16, so one above 0xffff would wrap onto a
// unit no access reaches; a unit named twice is as malformed.
TEST(MainMemory, LoadStateRejectsOutOfRangeAndRepeatedUnits)
{
    auto loadError = [](const std::string &pages) {
        MainMemory mem;
        try {
            mem.loadState(jsonParse(
                "{\"digest\": \"0x0\", \"pages\": {" + pages + "}}"));
        } catch (const FatalError &err) {
            return std::string(err.what());
        }
        return std::string("accepted");
    };
    EXPECT_NE(loadError("\"0x10010\": \"01\"").find(
                  "page key '0x10010' lies outside"),
              std::string::npos);
    EXPECT_NE(loadError("\"0x10\": \"01\", \"16\": \"01\"")
                  .find("page key '16' repeats"),
              std::string::npos);
}

TEST(MainMemory, MisalignedAccessThrows)
{
    MainMemory mem;
    EXPECT_THROW(mem.readWord(0x101), FatalError);
    EXPECT_THROW(mem.read(0x101, 2), FatalError);
    EXPECT_NO_THROW(mem.read(0x101, 1));
}

TEST(MainMemory, AmoSemantics)
{
    MainMemory mem;
    mem.writeWord(0x300, 10);
    EXPECT_EQ(mem.amo(Op::AMOADD, 0x300, 5), 10u);
    EXPECT_EQ(mem.readWord(0x300), 15u);
    EXPECT_EQ(mem.amo(Op::AMOSWAP, 0x300, 99), 15u);
    EXPECT_EQ(mem.readWord(0x300), 99u);
    EXPECT_EQ(mem.amo(Op::AMOAND, 0x300, 0x0f), 99u);
    EXPECT_EQ(mem.readWord(0x300), 99u & 0x0fu);
    mem.writeWord(0x304, static_cast<u32>(-5));
    EXPECT_EQ(mem.amo(Op::AMOMIN, 0x304, 3), static_cast<u32>(-5));
    EXPECT_EQ(static_cast<i32>(mem.readWord(0x304)), -5);
    EXPECT_EQ(mem.amo(Op::AMOMAX, 0x304, 3), static_cast<u32>(-5));
    EXPECT_EQ(mem.readWord(0x304), 3u);
}

TEST(MainMemory, AmoComputeXorOr)
{
    EXPECT_EQ(MainMemory::amoCompute(Op::AMOXOR, 0b1100, 0b1010), 0b0110u);
    EXPECT_EQ(MainMemory::amoCompute(Op::AMOOR, 0b1100, 0b1010), 0b1110u);
}

TEST(L1Cache, HitAfterMiss)
{
    L1Cache cache;
    const Cycle miss = cache.access(0x1000, false);
    const Cycle hit = cache.access(0x1004, false);  // same 32B line
    EXPECT_GT(miss, hit);
    EXPECT_EQ(hit, cache.config().hitLatency);
    EXPECT_EQ(cache.stats().get(Stat::ReadMisses), 1u);
    EXPECT_EQ(cache.stats().get(Stat::ReadHits), 1u);
}

TEST(L1Cache, LruEviction)
{
    CacheConfig cfg;
    cfg.sizeBytes = 128;   // 2 sets x 2 ways x 32B lines
    cfg.assoc = 2;
    L1Cache cache(cfg);
    // Three lines mapping to the same set (set stride = 64B).
    cache.access(0x0, false);
    cache.access(0x40, false);
    cache.access(0x0, false);     // touch line 0 so line 0x40 is LRU
    cache.access(0x80, false);    // evicts 0x40
    EXPECT_EQ(cache.stats().get(Stat::Evictions), 1u);
    EXPECT_EQ(cache.access(0x0, false), cfg.hitLatency);
    EXPECT_GT(cache.access(0x40, false), cfg.hitLatency);  // was evicted
}

TEST(L1Cache, DirtyWritebackCostsExtra)
{
    CacheConfig cfg;
    cfg.sizeBytes = 64;  // 1 set x 2 ways
    cfg.assoc = 2;
    L1Cache cache(cfg);
    cache.access(0x0, true);       // dirty
    cache.access(0x40, false);
    const Cycle evictClean = cache.access(0x80, false);   // evicts dirty 0x0
    EXPECT_EQ(evictClean, cfg.hitLatency + cfg.missPenalty + 2);
    EXPECT_EQ(cache.stats().get(Stat::Writebacks), 1u);
}

TEST(L1Cache, FlushDropsLines)
{
    L1Cache cache;
    cache.access(0x1000, false);
    cache.flush();
    EXPECT_GT(cache.access(0x1000, false), cache.config().hitLatency);
}

TEST(L1Cache, BadConfigRejected)
{
    CacheConfig cfg;
    cfg.lineBytes = 24;  // not a power of two
    EXPECT_THROW(L1Cache{cfg}, FatalError);
    CacheConfig cfg2;
    cfg2.sizeBytes = 100;
    EXPECT_THROW(L1Cache{cfg2}, FatalError);
    CacheConfig cfg3;  // 3 sets: not a power of two
    cfg3.sizeBytes = 96;
    cfg3.assoc = 1;
    cfg3.lineBytes = 32;
    EXPECT_THROW(L1Cache{cfg3}, FatalError);
}

TEST(L1Cache, DatasetFittingInCacheHasOnlyCompulsoryMisses)
{
    L1Cache cache;  // 16KB
    // Walk an 8KB array three times.
    for (int pass = 0; pass < 3; pass++)
        for (Addr a = 0; a < 8192; a += 4)
            cache.access(a, pass == 0);
    const u64 misses = cache.stats().get(Stat::ReadMisses) +
                       cache.stats().get(Stat::WriteMisses);
    EXPECT_EQ(misses, 8192u / cache.config().lineBytes);
}

} // namespace
} // namespace xloops
