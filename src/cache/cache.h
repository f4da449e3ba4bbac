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
#include <cstdlib>
#include <memory>
#include <optional>
#include <vector>

#include "cache/replacement.h"
#include "mem/line.h"

namespace pcmap::cache {

/**
 * Most ways one set may have: a way's age fits its rank byte, and
 * CacheConfig::validate rejects wider sets.
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
    unsigned writer = 0;     ///< last core to dirty the line
};

/** Result of one cache access. */
struct AccessResult
{
    bool hit = false;
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

/**
 * One set-associative cache level, stored as two arrays indexed by
 * way (set * assoc + way): the packed WayMeta records that lookups and
 * victim searches scan, and the 64-byte line data they never touch.
 */
class SetAssocCache
{
  public:
    /** lookup() of a line that is not resident. */
    static constexpr std::uint64_t kNoWay = ~std::uint64_t{0};

    explicit SetAssocCache(const CacheConfig &cfg);

    /** The way holding @p line_addr, or kNoWay: one tag scan, no stats. */
    std::uint64_t lookup(std::uint64_t line_addr) const;

    /**
     * Count a hit on resident @p way and refresh its recency.  A store
     * writes the words of @p store_data that @p store_mask selects; a
     * nonzero mask dirties them and makes @p writer the last writer.
     */
    void hit(std::uint64_t way, WordMask store_mask = 0,
             const CacheLine *store_data = nullptr, unsigned writer = 0);

    /** Count a miss; the caller installs the line with fill(). */
    void miss() { ++levelStats.misses; }

    /** lookup(), then hit() or miss(). */
    AccessResult access(std::uint64_t line_addr, bool is_store,
                        WordMask store_mask = 0,
                        const CacheLine *store_data = nullptr);

    /**
     * Install @p data for the absent @p line_addr, then apply the store
     * (@p store_mask of @p store_data) by @p writer.  Returns the dirty
     * victim, which must be handed to the level below.
     */
    std::optional<Eviction> fill(std::uint64_t line_addr,
                                 const CacheLine &data,
                                 WordMask store_mask = 0,
                                 const CacheLine *store_data = nullptr,
                                 unsigned writer = 0);

    /** Content of resident @p way. */
    const CacheLine &data(std::uint64_t way) const { return lines[way]; }

    /** Current content of a resident line (nullptr when absent). */
    const CacheLine *peek(std::uint64_t line_addr) const;

    /** Dirty mask of a resident line (0 when absent or clean). */
    WordMask dirtyMask(std::uint64_t line_addr) const;

    /** Flush every dirty line, returning the write-backs in set order. */
    std::vector<Eviction> flush();

    const CacheLevelStats &stats() const { return levelStats; }
    const CacheConfig &config() const { return cfg; }

  private:
    struct FreeDeleter
    {
        void operator()(void *p) const { std::free(p); }
    };
    /** An array from calloc, zeroed as every way starts. */
    template <typename T>
    using ZeroedArray = std::unique_ptr<T[], FreeDeleter>;

    /** Package dirty @p way as a write-back and count it. */
    Eviction evict(std::uint64_t way);

    CacheConfig cfg;
    unsigned assoc;
    std::uint64_t setMask; ///< set count - 1 (a power of two)
    unsigned setBits;      ///< log2 of the set count
    std::uint64_t numWays;
    ZeroedArray<WayMeta> meta;    ///< [set * assoc + way]
    ZeroedArray<CacheLine> lines; ///< [set * assoc + way]
    CacheLevelStats levelStats;
};

} // namespace pcmap::cache

#endif // PCMAP_CACHE_CACHE_H
