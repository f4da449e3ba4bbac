#include "cache/cache.h"

#include <bit>
#include <new>

#include "sim/log.h"

namespace pcmap::cache {

void
CacheConfig::validate() const
{
    if (sizeBytes == 0 || associativity == 0)
        fatal("cache size and associativity must be positive");
    if (associativity > kMaxAssociativity)
        fatal("cache associativity ", associativity, " exceeds the ",
              kMaxAssociativity, "-way limit");
    if (sizeBytes % (static_cast<std::uint64_t>(associativity) *
                     kLineBytes) !=
        0) {
        fatal("cache size must be a multiple of assoc * line size");
    }
    const std::uint64_t sets = numSets();
    if (sets == 0 || (sets & (sets - 1)) != 0)
        fatal("cache must have a power-of-two number of sets");
}

SetAssocCache::SetAssocCache(const CacheConfig &config)
    : cfg(config), assoc(config.associativity)
{
    cfg.validate();
    setMask = cfg.numSets() - 1;
    setBits = static_cast<unsigned>(std::popcount(setMask));
    numWays = cfg.numSets() * assoc;
    // calloc rather than value-initialized vectors: one bulk zeroing
    // (or fresh zero pages) instead of a per-element constructor loop,
    // which made a 4 MB array slower to build than the single array of
    // 80-byte ways it replaced.  All-zero metadata is every way's start
    // state: invalid, clean, rank 0.
    meta.reset(static_cast<WayMeta *>(
        std::calloc(numWays, sizeof(WayMeta))));
    lines.reset(static_cast<CacheLine *>(
        std::calloc(numWays, sizeof(CacheLine))));
    if (!meta || !lines)
        throw std::bad_alloc();
}

std::uint64_t
SetAssocCache::lookup(std::uint64_t line_addr) const
{
    const std::uint64_t base = (line_addr & setMask) * assoc;
    const std::uint64_t tag = line_addr >> setBits;
    for (std::uint64_t i = base; i < base + assoc; ++i) {
        if (meta[i].valid && meta[i].tag == tag)
            return i;
    }
    return kNoWay;
}

void
SetAssocCache::hit(std::uint64_t way, WordMask store_mask,
                   const CacheLine *store_data, unsigned writer)
{
    ++levelStats.hits;
    const auto w = static_cast<unsigned>(way % assoc);
    replTouch(cfg.repl, &meta[way - w], assoc, w);
    if (store_mask == 0)
        return;
    pcmap_assert(store_data != nullptr);
    forEachSetBit(store_mask,
                  [&](unsigned i) { lines[way].w[i] = store_data->w[i]; });
    meta[way].dirty |= store_mask;
    meta[way].writer = writer;
}

AccessResult
SetAssocCache::access(std::uint64_t line_addr, bool is_store,
                      WordMask store_mask, const CacheLine *store_data)
{
    const std::uint64_t way = lookup(line_addr);
    if (way == kNoWay) {
        miss();
        return AccessResult{false, true};
    }
    hit(way, is_store ? store_mask : 0, store_data);
    return AccessResult{true, false};
}

Eviction
SetAssocCache::evict(std::uint64_t way)
{
    const WayMeta &m = meta[way];
    ++levelStats.writebacks;
    levelStats.dirtyWordsWrittenBack += wordCount(m.dirty);
    return Eviction{(m.tag << setBits) | (way / assoc), lines[way],
                    m.dirty, m.writer};
}

std::optional<Eviction>
SetAssocCache::fill(std::uint64_t line_addr, const CacheLine &data,
                    WordMask store_mask, const CacheLine *store_data,
                    unsigned writer)
{
    pcmap_assert(lookup(line_addr) == kNoWay);
    const std::uint64_t base = (line_addr & setMask) * assoc;
    WayMeta *set = &meta[base];
    const unsigned w = replVictim(cfg.repl, set, assoc);
    pcmap_assert(w < assoc);
    const std::uint64_t way = base + w;

    std::optional<Eviction> evicted;
    if (set[w].valid && set[w].dirty != 0)
        evicted = evict(way);

    set[w].valid = true;
    set[w].tag = line_addr >> setBits;
    set[w].dirty = store_mask;
    set[w].writer = writer;
    replInstall(cfg.repl, set, assoc, w);
    lines[way] = data;
    if (store_mask != 0) {
        pcmap_assert(store_data != nullptr);
        forEachSetBit(store_mask, [&](unsigned i) {
            lines[way].w[i] = store_data->w[i];
        });
    }
    return evicted;
}

const CacheLine *
SetAssocCache::peek(std::uint64_t line_addr) const
{
    const std::uint64_t way = lookup(line_addr);
    return way == kNoWay ? nullptr : &lines[way];
}

WordMask
SetAssocCache::dirtyMask(std::uint64_t line_addr) const
{
    const std::uint64_t way = lookup(line_addr);
    return way == kNoWay ? 0 : meta[way].dirty;
}

std::vector<Eviction>
SetAssocCache::flush()
{
    std::vector<Eviction> out;
    for (std::uint64_t way = 0; way < numWays; ++way) {
        if (meta[way].valid && meta[way].dirty != 0)
            out.push_back(evict(way));
        meta[way].valid = false;
        meta[way].dirty = 0;
    }
    return out;
}

} // namespace pcmap::cache
