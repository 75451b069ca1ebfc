// Memory substrate tests: sparse paging, endianness, alignment, AMOs,
// and the L1 cache timing model.

#include <gtest/gtest.h>

#include "common/log.h"
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

TEST(MainMemory, CrossPageBlob)
{
    MainMemory mem;
    std::vector<u8> blob(100, 0x5a);
    const Addr base = (1u << 16) - 50;  // straddles a 64KB page boundary
    mem.loadBytes(base, blob);
    for (unsigned i = 0; i < 100; i++)
        EXPECT_EQ(mem.read(base + i, 1), 0x5au) << i;
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
