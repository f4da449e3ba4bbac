#include "cache/cache.h"

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

SetAssocCache::SetAssocCache(const CacheConfig &config) : cfg(config)
{
    cfg.validate();
    ways.resize(cfg.numSets() * cfg.associativity);
    repl = makeReplacementPolicy(cfg.repl, cfg.numSets(),
                                 cfg.associativity);
}

std::uint64_t
SetAssocCache::indexOf(const Way &way) const
{
    return static_cast<std::uint64_t>(&way - ways.data());
}

std::uint64_t
SetAssocCache::setOf(std::uint64_t line_addr) const
{
    return line_addr & (cfg.numSets() - 1);
}

std::uint64_t
SetAssocCache::tagOf(std::uint64_t line_addr) const
{
    return line_addr / cfg.numSets();
}

SetAssocCache::Way *
SetAssocCache::lookup(std::uint64_t line_addr)
{
    const std::uint64_t set = setOf(line_addr);
    const std::uint64_t tag = tagOf(line_addr);
    for (unsigned w = 0; w < cfg.associativity; ++w) {
        Way &way = ways[set * cfg.associativity + w];
        if (way.valid && way.tag == tag)
            return &way;
    }
    return nullptr;
}

const SetAssocCache::Way *
SetAssocCache::lookup(std::uint64_t line_addr) const
{
    return const_cast<SetAssocCache *>(this)->lookup(line_addr);
}

SetAssocCache::Way &
SetAssocCache::victimFor(std::uint64_t set)
{
    // Snapshot the per-way state the policy may rank on, then let it
    // choose.  kMaxAssociativity keeps the snapshot off the heap.
    pcmap_assert(cfg.associativity <= kMaxAssociativity);
    ReplacementPolicy::WayState views[kMaxAssociativity];
    for (unsigned w = 0; w < cfg.associativity; ++w) {
        const Way &way = ways[set * cfg.associativity + w];
        views[w] = ReplacementPolicy::WayState{way.valid,
                                               way.dirty != 0};
    }
    const unsigned w = repl->victim(set, views, cfg.associativity);
    pcmap_assert(w < cfg.associativity);
    return ways[set * cfg.associativity + w];
}

AccessResult
SetAssocCache::access(std::uint64_t line_addr, bool is_store,
                      WordMask store_mask, const CacheLine *store_data)
{
    AccessResult res;
    if (Way *way = lookup(line_addr)) {
        res.hit = true;
        ++levelStats.hits;
        repl->onHit(indexOf(*way));
        if (is_store) {
            pcmap_assert(store_data != nullptr || store_mask == 0);
            for (unsigned i = 0; i < kWordsPerLine; ++i) {
                if (store_mask & (1u << i))
                    way->data.w[i] = store_data->w[i];
            }
            way->dirty |= store_mask;
        }
        return res;
    }
    ++levelStats.misses;
    res.needsFill = true;
    return res;
}

std::optional<Eviction>
SetAssocCache::fill(std::uint64_t line_addr, const CacheLine &data,
                    WordMask store_mask, const CacheLine *store_data)
{
    pcmap_assert(lookup(line_addr) == nullptr);
    const std::uint64_t set = setOf(line_addr);
    Way &way = victimFor(set);

    std::optional<Eviction> evicted;
    if (way.valid && way.dirty != 0) {
        Eviction ev;
        ev.lineAddr = way.tag * cfg.numSets() + set;
        ev.data = way.data;
        ev.dirtyWords = way.dirty;
        evicted = ev;
        ++levelStats.writebacks;
        levelStats.dirtyWordsWrittenBack += wordCount(way.dirty);
    }

    way.valid = true;
    way.tag = tagOf(line_addr);
    way.data = data;
    way.dirty = 0;
    repl->onInstall(indexOf(way));
    if (store_mask != 0) {
        pcmap_assert(store_data != nullptr);
        for (unsigned i = 0; i < kWordsPerLine; ++i) {
            if (store_mask & (1u << i))
                way.data.w[i] = store_data->w[i];
        }
        way.dirty = store_mask;
    }
    return evicted;
}

const CacheLine *
SetAssocCache::peek(std::uint64_t line_addr) const
{
    const Way *way = lookup(line_addr);
    return way ? &way->data : nullptr;
}

WordMask
SetAssocCache::dirtyMask(std::uint64_t line_addr) const
{
    const Way *way = lookup(line_addr);
    return way ? way->dirty : 0;
}

std::vector<Eviction>
SetAssocCache::flush()
{
    std::vector<Eviction> out;
    for (std::uint64_t set = 0; set < cfg.numSets(); ++set) {
        for (unsigned w = 0; w < cfg.associativity; ++w) {
            Way &way = ways[set * cfg.associativity + w];
            if (!way.valid)
                continue;
            if (way.dirty != 0) {
                Eviction ev;
                ev.lineAddr = way.tag * cfg.numSets() + set;
                ev.data = way.data;
                ev.dirtyWords = way.dirty;
                out.push_back(ev);
                ++levelStats.writebacks;
                levelStats.dirtyWordsWrittenBack +=
                    wordCount(way.dirty);
            }
            way.valid = false;
            way.dirty = 0;
        }
    }
    return out;
}

} // namespace pcmap::cache
