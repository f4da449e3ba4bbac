#include "cache/replacement.h"

#include "sim/config.h"
#include "sim/log.h"

namespace pcmap::cache {

const char *
replPolicyName(ReplPolicy p)
{
    switch (p) {
    case ReplPolicy::Lru:
        return "lru";
    case ReplPolicy::Mac:
        return "mac";
    }
    fatal("invalid ReplPolicy ", static_cast<int>(p));
}

ReplPolicy
replPolicyFromName(const std::string &name)
{
    if (name == "lru")
        return ReplPolicy::Lru;
    if (name == "mac")
        return ReplPolicy::Mac;
    fatalUnknown("unknown replacement policy", name, {"lru", "mac"},
                 "lru, mac");
}

namespace {

/** MAC levels: fills insert at 1, hits promote up to kMacLevels - 1. */
constexpr std::uint8_t kMacLevels = 4;

} // namespace

void
replTouch(ReplPolicy p, WayMeta *set, unsigned assoc, unsigned w)
{
    if (p == ReplPolicy::Mac) {
        if (set[w].rank + 1 < kMacLevels)
            ++set[w].rank;
        return;
    }
    // Move to front: every way younger than @p w ages by one, so the
    // valid ways keep the ranks 0..k-1 in last-touch order, the order
    // a structure-wide use counter gives.  Invalid ways' ranks are
    // never read.
    const std::uint8_t age = set[w].rank;
    for (unsigned v = 0; v < assoc; ++v) {
        if (set[v].rank < age)
            ++set[v].rank;
    }
    set[w].rank = 0;
}

void
replInstall(ReplPolicy p, WayMeta *set, unsigned assoc, unsigned w)
{
    if (p == ReplPolicy::Mac) {
        set[w].rank = 1;
        return;
    }
    // @p w was invalid or the oldest valid way: every other way ages.
    for (unsigned v = 0; v < assoc; ++v)
        ++set[v].rank;
    set[w].rank = 0;
}

unsigned
replVictim(ReplPolicy p, WayMeta *set, unsigned assoc)
{
    std::uint8_t min_level = kMacLevels;
    unsigned oldest = 0;
    for (unsigned w = 0; w < assoc; ++w) {
        if (!set[w].valid)
            return w;
        if (set[w].rank > set[oldest].rank)
            oldest = w;
        if (set[w].rank < min_level)
            min_level = set[w].rank;
    }
    if (p == ReplPolicy::Lru)
        return oldest;
    // MAC: when the whole set sits above level 0, demote every way by
    // the set minimum (the "systematic" ageing step).
    if (min_level > 0) {
        for (unsigned w = 0; w < assoc; ++w)
            set[w].rank -= min_level;
    }
    // Rank: level first, then dirtiness — evicting a clean line costs
    // nothing downstream, so dirty lines stay resident longer and keep
    // absorbing stores.  First way on ties.
    unsigned best = 0;
    unsigned best_key = ~0u;
    for (unsigned w = 0; w < assoc; ++w) {
        const unsigned key = 2u * set[w].rank + (set[w].dirty ? 1u : 0u);
        if (key < best_key) {
            best_key = key;
            best = w;
        }
    }
    return best;
}

} // namespace pcmap::cache
