/** @file Unit tests for the generic set-associative cache (L1/L2). */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "cache/tag_array.hh"

namespace bvc
{
namespace
{

constexpr Addr kBlk = 0x1000;

Addr
sameSetAddr(const Cache &cache, Addr base, unsigned n)
{
    // Addresses n sets apart map to the same set.
    return base + static_cast<Addr>(n) * cache.numSets() * kLineBytes;
}

TEST(Cache, MissThenHit)
{
    Cache cache("t", 8 * 1024, 4, ReplacementKind::Lru, 3);
    std::optional<Eviction> evicted;
    EXPECT_FALSE(cache.access(kBlk, false, evicted));
    EXPECT_TRUE(cache.access(kBlk, false, evicted));
    EXPECT_EQ(cache.stats().get("read_misses"), 1u);
    EXPECT_EQ(cache.stats().get("read_hits"), 1u);
}

TEST(Cache, GeometryDerivedFromSize)
{
    Cache cache("t", 8 * 1024, 4, ReplacementKind::Lru, 3);
    EXPECT_EQ(cache.numSets(), 32u);
    EXPECT_EQ(cache.numWays(), 4u);
}

TEST(Cache, FillsInvalidWaysWithoutEviction)
{
    Cache cache("t", 8 * 1024, 4, ReplacementKind::Lru, 3);
    std::optional<Eviction> evicted;
    for (unsigned i = 0; i < 4; ++i) {
        cache.access(sameSetAddr(cache, kBlk, i), false, evicted);
        EXPECT_FALSE(evicted.has_value());
    }
}

TEST(Cache, EvictsLruWhenSetFull)
{
    Cache cache("t", 8 * 1024, 4, ReplacementKind::Lru, 3);
    std::optional<Eviction> evicted;
    for (unsigned i = 0; i < 4; ++i)
        cache.access(sameSetAddr(cache, kBlk, i), false, evicted);
    cache.access(sameSetAddr(cache, kBlk, 4), false, evicted);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->addr, kBlk); // oldest
    EXPECT_FALSE(evicted->dirty);
}

TEST(Cache, HitRefreshesLruPosition)
{
    Cache cache("t", 8 * 1024, 4, ReplacementKind::Lru, 3);
    std::optional<Eviction> evicted;
    for (unsigned i = 0; i < 4; ++i)
        cache.access(sameSetAddr(cache, kBlk, i), false, evicted);
    cache.access(kBlk, false, evicted); // refresh oldest
    cache.access(sameSetAddr(cache, kBlk, 4), false, evicted);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->addr, sameSetAddr(cache, kBlk, 1));
}

TEST(Cache, DirtyEvictionReported)
{
    Cache cache("t", 8 * 1024, 4, ReplacementKind::Lru, 3);
    std::optional<Eviction> evicted;
    cache.access(kBlk, true, evicted); // store
    for (unsigned i = 1; i <= 4; ++i)
        cache.access(sameSetAddr(cache, kBlk, i), false, evicted);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->addr, kBlk);
    EXPECT_TRUE(evicted->dirty);
    EXPECT_EQ(cache.stats().get("dirty_evictions"), 1u);
}

TEST(Cache, WriteHitSetsDirty)
{
    Cache cache("t", 8 * 1024, 4, ReplacementKind::Lru, 3);
    std::optional<Eviction> evicted;
    cache.access(kBlk, false, evicted);
    EXPECT_FALSE(cache.probeDirty(kBlk));
    cache.access(kBlk, true, evicted);
    EXPECT_TRUE(cache.probeDirty(kBlk));
}

TEST(Cache, ProbeDoesNotDisturbState)
{
    Cache cache("t", 8 * 1024, 2, ReplacementKind::Lru, 3);
    std::optional<Eviction> evicted;
    cache.access(kBlk, false, evicted);
    cache.access(sameSetAddr(cache, kBlk, 1), false, evicted);
    // Probing the LRU line must not promote it.
    EXPECT_TRUE(cache.probe(kBlk));
    cache.access(sameSetAddr(cache, kBlk, 2), false, evicted);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->addr, kBlk);
}

TEST(Cache, InvalidateReturnsDirtiness)
{
    Cache cache("t", 8 * 1024, 4, ReplacementKind::Lru, 3);
    std::optional<Eviction> evicted;
    cache.access(kBlk, true, evicted);
    const auto dirty = cache.invalidate(kBlk);
    ASSERT_TRUE(dirty.has_value());
    EXPECT_TRUE(*dirty);
    EXPECT_FALSE(cache.probe(kBlk));
    EXPECT_FALSE(cache.invalidate(kBlk).has_value());
}

TEST(Cache, InvalidatedWayReusedBeforeEviction)
{
    Cache cache("t", 8 * 1024, 4, ReplacementKind::Lru, 3);
    std::optional<Eviction> evicted;
    for (unsigned i = 0; i < 4; ++i)
        cache.access(sameSetAddr(cache, kBlk, i), false, evicted);
    cache.invalidate(sameSetAddr(cache, kBlk, 2));
    cache.access(sameSetAddr(cache, kBlk, 5), false, evicted);
    EXPECT_FALSE(evicted.has_value());
}

TEST(Cache, FlushEmptiesEverything)
{
    Cache cache("t", 8 * 1024, 4, ReplacementKind::Lru, 3);
    std::optional<Eviction> evicted;
    for (unsigned i = 0; i < 20; ++i)
        cache.access(kBlk + i * kLineBytes, false, evicted);
    cache.flush();
    std::size_t count = 0;
    cache.forEachLine([&](const CacheLine &) { ++count; });
    EXPECT_EQ(count, 0u);
}

TEST(Cache, ForEachLineVisitsValidLines)
{
    Cache cache("t", 8 * 1024, 4, ReplacementKind::Lru, 3);
    std::optional<Eviction> evicted;
    cache.access(kBlk, false, evicted);
    cache.access(kBlk + kLineBytes, true, evicted);
    std::size_t count = 0;
    bool sawDirty = false;
    cache.forEachLine([&](const CacheLine &line) {
        ++count;
        sawDirty = sawDirty || line.dirty;
    });
    EXPECT_EQ(count, 2u);
    EXPECT_TRUE(sawDirty);
}

TEST(CacheDeathTest, NonPowerOfTwoSetsPanics)
{
    EXPECT_DEATH(Cache("t", 3 * 1024, 4, ReplacementKind::Lru, 1),
                 "power of two");
}

TEST(TagArrayDeathTest, InstallRejectsAnInvalidLine)
{
    TagArray tags(4, 2);
    CacheLine line;
    line.tag = kBlk;
    EXPECT_DEATH(tags.install(SetIdx{1}, WayIdx{0}, line),
                 "TagArray: installing an invalid line");
}

TEST(TagArrayDeathTest, InstallRejectsTheSentinelTag)
{
    TagArray tags(4, 2);
    CacheLine line;
    line.valid = true;
    line.tag = TagArray::kInvalidTag;
    EXPECT_DEATH(tags.install(SetIdx{1}, WayIdx{0}, line),
                 "TagArray: line tag collides with the invalid sentinel");
}

} // namespace
} // namespace bvc
