// Parameterized sweep of the L1 cache timing model: geometry
// invariants (hit after fill, conflict behaviour, capacity misses)
// must hold across sizes, associativities, and line sizes.

#include <gtest/gtest.h>

#include "mem/cache.h"

namespace xloops {
namespace {

struct CacheParam
{
    u32 sizeBytes;
    u32 assoc;
    u32 lineBytes;
};

class CacheSweep : public ::testing::TestWithParam<CacheParam>
{
  protected:
    CacheConfig
    cfg() const
    {
        CacheConfig c;
        c.sizeBytes = GetParam().sizeBytes;
        c.assoc = GetParam().assoc;
        c.lineBytes = GetParam().lineBytes;
        return c;
    }
};

TEST_P(CacheSweep, FirstAccessMissesSecondHits)
{
    L1Cache cache(cfg());
    EXPECT_GT(cache.access(0x4000, false), cfg().hitLatency);
    EXPECT_EQ(cache.access(0x4000, false), cfg().hitLatency);
    // Same line, different offset.
    EXPECT_EQ(cache.access(0x4000 + cfg().lineBytes - 1, false),
              cfg().hitLatency);
}

TEST_P(CacheSweep, WholeCacheIsResident)
{
    L1Cache cache(cfg());
    // Touch exactly capacity worth of lines, then re-touch: all hits.
    const u32 lines = cfg().sizeBytes / cfg().lineBytes;
    for (u32 l = 0; l < lines; l++)
        cache.access(l * cfg().lineBytes, false);
    for (u32 l = 0; l < lines; l++)
        EXPECT_EQ(cache.access(l * cfg().lineBytes, false),
                  cfg().hitLatency) << l;
}

TEST_P(CacheSweep, TwiceCapacityThrashes)
{
    L1Cache cache(cfg());
    const u32 lines = 2 * cfg().sizeBytes / cfg().lineBytes;
    // Two sequential passes over 2x capacity with LRU: every access
    // of the second pass misses again.
    for (u32 pass = 0; pass < 2; pass++)
        for (u32 l = 0; l < lines; l++)
            cache.access(l * cfg().lineBytes, false);
    const u64 misses = cache.stats().get(Stat::ReadMisses);
    EXPECT_EQ(misses, 2ull * lines);
}

TEST_P(CacheSweep, ConflictSetBehaviour)
{
    L1Cache cache(cfg());
    const u32 numSets = cfg().sizeBytes / (cfg().lineBytes * cfg().assoc);
    const u32 setStride = numSets * cfg().lineBytes;
    // assoc lines mapping to set 0 fit; assoc+1 evict.
    for (u32 w = 0; w < cfg().assoc; w++)
        cache.access(w * setStride, false);
    for (u32 w = 0; w < cfg().assoc; w++)
        EXPECT_EQ(cache.access(w * setStride, false), cfg().hitLatency);
    cache.access(cfg().assoc * setStride, false);
    EXPECT_EQ(cache.stats().get(Stat::Evictions), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheSweep,
    ::testing::Values(CacheParam{16 * 1024, 2, 32},
                      CacheParam{16 * 1024, 4, 64},
                      CacheParam{8 * 1024, 1, 32},
                      CacheParam{32 * 1024, 8, 32},
                      CacheParam{4 * 1024, 2, 16},
                      CacheParam{64 * 1024, 4, 128}),
    [](const ::testing::TestParamInfo<CacheParam> &info) {
        return "s" + std::to_string(info.param.sizeBytes / 1024) + "k_a" +
               std::to_string(info.param.assoc) + "_l" +
               std::to_string(info.param.lineBytes);
    });

} // namespace
} // namespace xloops
