/**
 * @file
 * A generic set-associative cache with per-word dirty tracking.
 *
 * The paper's Section IV-A1 discusses where essential words can be
 * discovered; its option 1 is an LLC with one dirty bit per 8-byte
 * word instead of one per line.  This write-back cache implements
 * exactly that organization; it is the array inside the timed
 * CacheTier, whose dirty victims carry their per-word dirty masks to
 * the PCM side.
 */

#ifndef PCMAP_CACHE_CACHE_H
#define PCMAP_CACHE_CACHE_H

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cache/replacement.h"
#include "mem/line.h"

namespace pcmap::cache {

/**
 * Most ways one set may have: the victim search snapshots a set's
 * ways on the stack, and CacheConfig::validate rejects wider sets.
 */
constexpr unsigned kMaxAssociativity = 64;

/** Geometry and policy of one cache level. */
struct CacheConfig
{
    std::uint64_t sizeBytes = 8ull << 20; ///< 8 MB (the paper's L2).
    unsigned associativity = 8;
    ReplPolicy repl = ReplPolicy::Lru;

    std::uint64_t numSets() const
    {
        return sizeBytes / kLineBytes / associativity;
    }

    void validate() const;
};

/** A line evicted from the cache (write-back victim). */
struct Eviction
{
    std::uint64_t lineAddr = 0;
    CacheLine data{};
    WordMask dirtyWords = 0; ///< words the CPU wrote while resident
};

/** Result of one cache access. */
struct AccessResult
{
    bool hit = false;
    /** Dirty victim pushed out by the fill. */
    std::optional<Eviction> writeback;
    /**
     * On a miss, the line must be fetched from below; the caller
     * fills it in via fill().
     */
    bool needsFill = false;
};

/** Statistics of one cache level. */
struct CacheLevelStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t dirtyWordsWrittenBack = 0;

    double
    hitRate() const
    {
        const std::uint64_t total = hits + misses;
        return total ? static_cast<double>(hits) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

/** One set-associative cache level. */
class SetAssocCache
{
  public:
    explicit SetAssocCache(const CacheConfig &cfg);

    /**
     * Look up @p line_addr.  For stores, @p store_mask selects the
     * words written and @p store_data supplies their new values.
     * A hit applies the store in place; a miss reports needsFill —
     * call fill() with the line fetched from the level below, after
     * which the store is applied.  The returned writeback (if any)
     * must be handed to the level below.
     */
    AccessResult access(std::uint64_t line_addr, bool is_store,
                        WordMask store_mask = 0,
                        const CacheLine *store_data = nullptr);

    /** Install @p data for @p line_addr after a reported miss. */
    std::optional<Eviction> fill(std::uint64_t line_addr,
                                 const CacheLine &data,
                                 WordMask store_mask = 0,
                                 const CacheLine *store_data = nullptr);

    /** Current content of a resident line (nullptr when absent). */
    const CacheLine *peek(std::uint64_t line_addr) const;

    /** Dirty mask of a resident line (0 when absent or clean). */
    WordMask dirtyMask(std::uint64_t line_addr) const;

    /** Flush every dirty line, returning the write-backs in set order. */
    std::vector<Eviction> flush();

    const CacheLevelStats &stats() const { return levelStats; }
    const CacheConfig &config() const { return cfg; }

  private:
    struct Way
    {
        std::uint64_t tag = 0;
        bool valid = false;
        WordMask dirty = 0;
        CacheLine data{};
    };

    Way *lookup(std::uint64_t line_addr);
    const Way *lookup(std::uint64_t line_addr) const;
    Way &victimFor(std::uint64_t set);
    std::uint64_t setOf(std::uint64_t line_addr) const;
    std::uint64_t tagOf(std::uint64_t line_addr) const;
    std::uint64_t indexOf(const Way &way) const;

    CacheConfig cfg;
    std::vector<Way> ways; ///< [set * assoc + way]
    std::unique_ptr<ReplacementPolicy> repl;
    CacheLevelStats levelStats;
};

} // namespace pcmap::cache

#endif // PCMAP_CACHE_CACHE_H
