/**
 * @file
 * Tests for the set-associative cache: hits/misses, LRU, per-word
 * dirty tracking, write-backs, flush, and geometry validation.
 */

#include <gtest/gtest.h>

#include "cache/cache.h"
#include "sim/log.h"
#include "sim/rng.h"

namespace pcmap::cache {
namespace {

CacheConfig
smallCache(unsigned assoc = 2, std::uint64_t lines = 16)
{
    CacheConfig cfg;
    cfg.sizeBytes = lines * kLineBytes;
    cfg.associativity = assoc;
    return cfg;
}

CacheLine
patternLine(std::uint64_t seed)
{
    CacheLine l;
    for (unsigned i = 0; i < kWordsPerLine; ++i)
        l.w[i] = seed * 100 + i;
    return l;
}

TEST(Cache, MissThenHit)
{
    SetAssocCache c(smallCache());
    AccessResult r = c.access(5, false);
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(r.needsFill);
    EXPECT_FALSE(c.fill(5, patternLine(5)).has_value());
    r = c.access(5, false);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(c.stats().hits, 1u);
    EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, PeekReturnsFilledData)
{
    SetAssocCache c(smallCache());
    c.access(7, false);
    c.fill(7, patternLine(7));
    ASSERT_NE(c.peek(7), nullptr);
    EXPECT_EQ(*c.peek(7), patternLine(7));
    EXPECT_EQ(c.peek(8), nullptr);
}

TEST(Cache, StoreOnHitSetsDirtyWords)
{
    SetAssocCache c(smallCache());
    c.access(3, false);
    c.fill(3, patternLine(3));
    CacheLine s;
    s.w[2] = 999;
    s.w[6] = 888;
    c.access(3, true, 0b01000100, &s);
    EXPECT_EQ(c.dirtyMask(3), 0b01000100);
    EXPECT_EQ(c.peek(3)->w[2], 999u);
    EXPECT_EQ(c.peek(3)->w[6], 888u);
    EXPECT_EQ(c.peek(3)->w[0], patternLine(3).w[0]);
}

TEST(Cache, StoreOnFillSetsDirtyWords)
{
    SetAssocCache c(smallCache());
    c.access(3, true, 0b1, nullptr); // miss reported
    CacheLine s;
    s.w[0] = 42;
    c.fill(3, patternLine(3), 0b1, &s);
    EXPECT_EQ(c.dirtyMask(3), 0b1);
    EXPECT_EQ(c.peek(3)->w[0], 42u);
}

TEST(Cache, LruEvictsOldest)
{
    // Direct-mapped 8-set cache: lines 0 and 8 collide.
    SetAssocCache c(smallCache(1, 8));
    c.access(0, false);
    c.fill(0, patternLine(0));
    c.access(8, false);
    auto ev = c.fill(8, patternLine(8));
    EXPECT_FALSE(ev.has_value()); // line 0 was clean
    EXPECT_EQ(c.peek(0), nullptr);
    EXPECT_NE(c.peek(8), nullptr);
}

TEST(Cache, DirtyEvictionCarriesWordsAndData)
{
    SetAssocCache c(smallCache(1, 8));
    c.access(0, false);
    c.fill(0, patternLine(0));
    CacheLine s;
    s.w[4] = 777;
    c.access(0, true, 0b10000, &s);

    c.access(8, false);
    auto ev = c.fill(8, patternLine(8));
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->lineAddr, 0u);
    EXPECT_EQ(ev->dirtyWords, 0b10000);
    EXPECT_EQ(ev->data.w[4], 777u);
    EXPECT_EQ(c.stats().writebacks, 1u);
    EXPECT_EQ(c.stats().dirtyWordsWrittenBack, 1u);
}

TEST(Cache, LruPreservesRecentlyUsed)
{
    // 2-way, 1 set (2 lines): touch 0, 1, re-touch 0, then insert 2.
    SetAssocCache c(smallCache(2, 2));
    c.access(0, false);
    c.fill(0, patternLine(0));
    c.access(1, false);
    c.fill(1, patternLine(1));
    c.access(0, false); // refresh 0
    c.access(2, false);
    c.fill(2, patternLine(2));
    EXPECT_NE(c.peek(0), nullptr);
    EXPECT_EQ(c.peek(1), nullptr); // victim was 1
}

TEST(Cache, DirtyBitsAccumulateAcrossStores)
{
    SetAssocCache c(smallCache());
    c.access(9, false);
    c.fill(9, patternLine(9));
    CacheLine s;
    s.w[0] = 1;
    c.access(9, true, 0b1, &s);
    s.w[3] = 2;
    c.access(9, true, 0b1000, &s);
    EXPECT_EQ(c.dirtyMask(9), 0b1001);
}

TEST(Cache, FlushReturnsAllDirtyLines)
{
    SetAssocCache c(smallCache(2, 16));
    for (std::uint64_t line = 0; line < 4; ++line) {
        c.access(line, false);
        c.fill(line, patternLine(line));
    }
    CacheLine s;
    s.w[1] = 5;
    c.access(1, true, 0b10, &s);
    c.access(3, true, 0b10, &s);
    const auto flushed = c.flush();
    EXPECT_EQ(flushed.size(), 2u);
    for (std::uint64_t line = 0; line < 4; ++line)
        EXPECT_EQ(c.peek(line), nullptr);
}

TEST(Cache, ManyLinesRandomizedConsistency)
{
    SetAssocCache c(smallCache(4, 64));
    Rng rng(3);
    // Shadow model of the most recent content per line.
    std::unordered_map<std::uint64_t, CacheLine> shadow;
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t line = rng.below(256);
        const bool is_store = rng.chance(0.4);
        CacheLine s;
        const auto word = static_cast<unsigned>(rng.below(8));
        s.w[word] = rng.next();
        const WordMask mask =
            is_store ? static_cast<WordMask>(1u << word) : 0;
        const AccessResult r =
            c.access(line, is_store, mask, is_store ? &s : nullptr);
        if (!r.hit) {
            const CacheLine base = shadow.count(line)
                                       ? shadow[line]
                                       : patternLine(line);
            c.fill(line, base, mask, is_store ? &s : nullptr);
        }
        CacheLine &sh =
            shadow.try_emplace(line, patternLine(line)).first->second;
        if (is_store)
            sh.w[word] = s.w[word];
        ASSERT_NE(c.peek(line), nullptr);
        ASSERT_EQ(*c.peek(line), sh) << "iteration " << i;
    }
}

TEST(Cache, RefillAfterDirtyEvictionStartsClean)
{
    // Dirty-word masks must not survive eviction: after a dirty line
    // is pushed out, re-filling the same line restarts its mask from
    // whatever the re-filling access wrote, not the old history.
    SetAssocCache c(smallCache(1, 8));
    c.access(0, false);
    c.fill(0, patternLine(0));
    CacheLine s;
    s.w[2] = 5;
    c.access(0, true, 0b100, &s);
    c.access(8, false);
    const auto ev = c.fill(8, patternLine(8)); // evicts dirty line 0
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->dirtyWords, 0b100);

    s.w[7] = 9;
    c.access(0, true, 0b10000000, &s);
    c.fill(0, patternLine(0), 0b10000000, &s);
    EXPECT_EQ(c.dirtyMask(0), 0b10000000);
    // ...and accumulation still works on top of the fresh mask.
    s.w[0] = 1;
    c.access(0, true, 0b1, &s);
    EXPECT_EQ(c.dirtyMask(0), 0b10000001);
}

TEST(Cache, MacEvictsCleanBeforeDirty)
{
    // 2-way, 1 set, one clean and one dirty resident: the MAC-style
    // policy must sacrifice the clean line even when the dirty one is
    // older (LRU would evict the dirty one here).
    CacheConfig cfg = smallCache(2, 2);
    cfg.repl = ReplPolicy::Mac;
    SetAssocCache c(cfg);
    c.access(0, false);
    c.fill(0, patternLine(0));
    CacheLine s;
    s.w[0] = 1;
    c.access(0, true, 0b1, &s); // line 0 dirty
    c.access(1, false);
    c.fill(1, patternLine(1)); // line 1 clean, newer
    c.access(2, false);
    const auto ev = c.fill(2, patternLine(2));
    EXPECT_FALSE(ev.has_value()) << "victim must be the clean line";
    EXPECT_NE(c.peek(0), nullptr);
    EXPECT_EQ(c.peek(1), nullptr);
}

TEST(CacheConfigValidate, RejectsUnusableShapes)
{
    ScopedErrorTrap trap;

    CacheConfig zero_size;
    zero_size.sizeBytes = 0;
    EXPECT_THROW(zero_size.validate(), SimError);

    CacheConfig zero_assoc = smallCache();
    zero_assoc.associativity = 0;
    EXPECT_THROW(zero_assoc.validate(), SimError);

    CacheConfig not_multiple = smallCache(2);
    not_multiple.sizeBytes = 3 * kLineBytes; // not assoc * line aligned
    EXPECT_THROW(not_multiple.validate(), SimError);

    CacheConfig non_pow2_sets = smallCache(1, 12);
    EXPECT_THROW(non_pow2_sets.validate(), SimError);

    // Wider than the victim search's way snapshot: a well-formed
    // geometry that would otherwise panic at the first eviction.
    CacheConfig too_wide = smallCache(128, 128);
    EXPECT_THROW(too_wide.validate(), SimError);
    EXPECT_NO_THROW(smallCache(kMaxAssociativity, kMaxAssociativity)
                        .validate());

    EXPECT_NO_THROW(smallCache().validate());
}

TEST(CacheDeath, BadGeometryIsFatal)
{
    CacheConfig cfg;
    cfg.sizeBytes = 100; // not a multiple of assoc * line
    EXPECT_EXIT(SetAssocCache c(cfg), ::testing::ExitedWithCode(1),
                "multiple");
}

} // namespace
} // namespace pcmap::cache
