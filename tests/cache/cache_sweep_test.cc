/**
 * @file
 * Parameterized fuzz of the set-associative cache across geometries:
 * a randomized access stream checked against simple shadow models of
 * content, residency capacity, dirty accounting, and the line each fill
 * evicts under LRU and under MAC.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "cache/cache.h"
#include "sim/rng.h"

namespace pcmap::cache {
namespace {

using Geometry = std::tuple<unsigned /*assoc*/, std::uint64_t /*lines*/>;

class CacheSweep : public ::testing::TestWithParam<Geometry>
{
  protected:
    CacheConfig
    config() const
    {
        CacheConfig cfg;
        cfg.associativity = std::get<0>(GetParam());
        cfg.sizeBytes = std::get<1>(GetParam()) * kLineBytes;
        return cfg;
    }
};

/**
 * Reference replacement state of one set, written from the policies'
 * definitions: LRU as a recency list (front = most recent), MAC as the
 * set's ways in way order with each one's level and dirtiness.
 */
class ShadowSet
{
  public:
    /** A resident line and whether it was displaced dirty. */
    struct Victim
    {
        std::uint64_t line = 0;
        bool dirty = false;
    };

    ShadowSet(ReplPolicy p, unsigned assoc) : policy(p), ways(assoc) {}

    bool
    holds(std::uint64_t line) const
    {
        return find(line) != nullptr;
    }

    /** A hit on resident @p line; @p store dirties it. */
    void
    touch(std::uint64_t line, bool store)
    {
        Way *way = find(line);
        way->dirty = way->dirty || store;
        if (policy == ReplPolicy::Mac) {
            way->level = std::min(way->level + 1, kMacLevels - 1);
            return;
        }
        recency.erase(std::find(recency.begin(), recency.end(), line));
        recency.insert(recency.begin(), line);
    }

    /** Install @p line; returns the line it displaced, if any. */
    std::optional<Victim>
    install(std::uint64_t line, bool dirty)
    {
        std::optional<Victim> victim;
        Way *slot = nullptr;
        for (Way &w : ways) {
            if (!w.valid) {
                slot = &w;
                break;
            }
        }
        if (slot == nullptr && policy == ReplPolicy::Lru) {
            // The least recently used line, wherever it sits.
            slot = find(recency.back());
            recency.pop_back();
        } else if (slot == nullptr) {
            // MAC: age the set down to level 0, then evict the lowest
            // level, clean before dirty, first way on ties.
            unsigned min_level = kMacLevels;
            for (const Way &w : ways)
                min_level = std::min(min_level, w.level);
            for (Way &w : ways)
                w.level -= min_level;
            slot = &ways[0];
            for (Way &w : ways) {
                if (2 * w.level + w.dirty < 2 * slot->level + slot->dirty)
                    slot = &w;
            }
        }
        if (slot->valid)
            victim = Victim{slot->line, slot->dirty};
        *slot = Way{true, line, dirty, 1};
        if (policy == ReplPolicy::Lru)
            recency.insert(recency.begin(), line);
        return victim;
    }

  private:
    static constexpr unsigned kMacLevels = 4;

    struct Way
    {
        bool valid = false;
        std::uint64_t line = 0;
        bool dirty = false;
        unsigned level = 0;
    };

    Way *
    find(std::uint64_t line)
    {
        for (Way &w : ways) {
            if (w.valid && w.line == line)
                return &w;
        }
        return nullptr;
    }
    const Way *
    find(std::uint64_t line) const
    {
        return const_cast<ShadowSet *>(this)->find(line);
    }

    ReplPolicy policy;
    std::vector<Way> ways;
    std::vector<std::uint64_t> recency;
};

/**
 * Drive a randomized access stream through @p cfg's cache, checking
 * content, dirty write-backs and which line each fill evicts against
 * the shadow models.
 */
void
shadowFuzz(const CacheConfig &cfg, std::uint64_t seed)
{
    SetAssocCache cache(cfg);
    Rng rng(seed);

    // Shadow of the latest content per line and of dirty words since
    // the line was last (re)filled clean.
    std::unordered_map<std::uint64_t, CacheLine> content;
    const std::uint64_t line_space = cfg.sizeBytes / kLineBytes * 4;
    const std::uint64_t sets = cfg.numSets();
    std::vector<ShadowSet> shadow(
        sets, ShadowSet(cfg.repl, cfg.associativity));

    std::uint64_t resident_writebacks = 0;
    std::uint64_t evictions = 0;
    for (int i = 0; i < 8000; ++i) {
        const std::uint64_t line = rng.below(line_space);
        const bool is_store = rng.chance(0.45);
        CacheLine store_line;
        const auto word = static_cast<unsigned>(rng.below(8));
        store_line.w[word] = rng.next();
        const WordMask mask =
            is_store ? static_cast<WordMask>(1u << word) : 0;

        ShadowSet &set = shadow[line % sets];
        const AccessResult res = cache.access(
            line, is_store, mask, is_store ? &store_line : nullptr);
        ASSERT_EQ(res.hit, set.holds(line)) << "iteration " << i;
        if (res.hit) {
            set.touch(line, is_store);
        } else {
            const CacheLine base =
                content.count(line) ? content[line] : CacheLine{};
            const auto ev = cache.fill(line, base, mask,
                                       is_store ? &store_line
                                                : nullptr);
            const auto victim = set.install(line, is_store);
            if (victim) {
                ++evictions;
                ASSERT_EQ(cache.peek(victim->line), nullptr)
                    << "iteration " << i << ": line " << victim->line
                    << " should have been evicted";
            }
            ASSERT_EQ(ev.has_value(), victim && victim->dirty)
                << "iteration " << i;
            if (ev) {
                ++resident_writebacks;
                ASSERT_EQ(ev->lineAddr, victim->line);
                // Evicted data must match the shadow content.
                ASSERT_EQ(ev->data, content[ev->lineAddr]);
                ASSERT_NE(ev->dirtyWords, 0u);
            }
        }
        CacheLine &sh =
            content.try_emplace(line, CacheLine{}).first->second;
        if (is_store)
            sh.w[word] = store_line.w[word];

        // Resident content always equals the shadow.
        ASSERT_NE(cache.peek(line), nullptr);
        ASSERT_EQ(*cache.peek(line), sh) << "iteration " << i;
    }
    EXPECT_GT(evictions, 0u);

    // Flush returns only dirty lines, each matching the shadow.
    for (const Eviction &ev : cache.flush()) {
        ASSERT_EQ(ev.data, content[ev.lineAddr]);
        ASSERT_NE(ev.dirtyWords, 0u);
        ++resident_writebacks;
    }
    EXPECT_GT(resident_writebacks, 0u);

    // Accounting: hits + misses == accesses.
    EXPECT_EQ(cache.stats().hits + cache.stats().misses, 8000u);
}

TEST_P(CacheSweep, ShadowModelFuzz)
{
    const std::uint64_t seed =
        std::get<0>(GetParam()) * 1000 + std::get<1>(GetParam());
    for (const ReplPolicy policy : {ReplPolicy::Lru, ReplPolicy::Mac}) {
        SCOPED_TRACE(replPolicyName(policy));
        CacheConfig cfg = config();
        cfg.repl = policy;
        ASSERT_NO_FATAL_FAILURE(shadowFuzz(cfg, seed));
    }
}

TEST_P(CacheSweep, NeverExceedsCapacity)
{
    SetAssocCache cache(config());
    const std::uint64_t capacity = std::get<1>(GetParam());
    Rng rng(9);
    std::uint64_t resident = 0;
    for (int i = 0; i < 3000; ++i) {
        const std::uint64_t line = rng.below(capacity * 8);
        if (!cache.access(line, false).hit) {
            cache.fill(line, CacheLine{});
            ++resident;
        }
    }
    // Count lines actually resident by probing.
    std::uint64_t found = 0;
    for (std::uint64_t line = 0; line < capacity * 8; ++line)
        found += cache.peek(line) != nullptr ? 1 : 0;
    EXPECT_LE(found, capacity);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheSweep,
    ::testing::Values(Geometry{1, 16}, Geometry{2, 32}, Geometry{4, 64},
                      Geometry{8, 64}, Geometry{16, 128}),
    [](const ::testing::TestParamInfo<Geometry> &info) {
        return "assoc" + std::to_string(std::get<0>(info.param)) +
               "_lines" + std::to_string(std::get<1>(info.param));
    });

} // namespace
} // namespace pcmap::cache
