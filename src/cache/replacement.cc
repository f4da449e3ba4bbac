#include "cache/replacement.h"

#include <vector>

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

/**
 * Least-recently-used with a single structure-wide use counter.  The
 * counter ordering and the first-lowest tie-break reproduce the
 * original in-array implementation exactly, which is what keeps the
 * CacheTier (and every golden snapshot built on it) byte-identical
 * under the policy extraction.
 */
class LruPolicy final : public ReplacementPolicy
{
  public:
    LruPolicy(std::uint64_t sets, unsigned assoc)
        : lastUse(sets * assoc, 0)
    {
    }

    void onHit(std::uint64_t i) override { lastUse[i] = ++useCounter; }
    void onInstall(std::uint64_t i) override
    {
        lastUse[i] = ++useCounter;
    }

    unsigned
    victim(std::uint64_t set, const WayState *ways,
           unsigned assoc) override
    {
        const std::uint64_t base = set * assoc;
        unsigned best = 0;
        bool have = false;
        for (unsigned w = 0; w < assoc; ++w) {
            if (!ways[w].valid)
                return w;
            if (!have || lastUse[base + w] < lastUse[base + best]) {
                best = w;
                have = true;
            }
        }
        return best;
    }

  private:
    std::vector<std::uint64_t> lastUse;
    std::uint64_t useCounter = 0;
};

/**
 * MAC-style multilevel policy.  Each way carries a level in
 * [0, kLevels): fills insert at level 1, hits promote one level
 * (saturating), and when a victim search finds the whole set above
 * level 0 every way is demoted by the set minimum (the "systematic"
 * ageing step).  The victim is the lowest-level way, clean before
 * dirty within a level, first way on ties — all deterministic.
 */
class MacPolicy final : public ReplacementPolicy
{
  public:
    static constexpr std::uint8_t kLevels = 4;

    MacPolicy(std::uint64_t sets, unsigned assoc)
        : level(sets * assoc, 0)
    {
    }

    void
    onHit(std::uint64_t i) override
    {
        if (level[i] + 1 < kLevels)
            ++level[i];
    }

    void onInstall(std::uint64_t i) override { level[i] = 1; }

    unsigned
    victim(std::uint64_t set, const WayState *ways,
           unsigned assoc) override
    {
        const std::uint64_t base = set * assoc;
        std::uint8_t min_level = kLevels;
        for (unsigned w = 0; w < assoc; ++w) {
            if (!ways[w].valid)
                return w;
            if (level[base + w] < min_level)
                min_level = level[base + w];
        }
        if (min_level > 0) {
            for (unsigned w = 0; w < assoc; ++w)
                level[base + w] -= min_level;
        }
        // Rank: level first, then dirtiness — evicting a clean line
        // costs nothing downstream, so dirty lines stay resident
        // longer and keep absorbing stores.
        unsigned best = 0;
        unsigned best_key = ~0u;
        for (unsigned w = 0; w < assoc; ++w) {
            const unsigned key =
                2u * level[base + w] + (ways[w].dirty ? 1u : 0u);
            if (key < best_key) {
                best_key = key;
                best = w;
            }
        }
        return best;
    }

  private:
    std::vector<std::uint8_t> level;
};

} // namespace

std::unique_ptr<ReplacementPolicy>
makeReplacementPolicy(ReplPolicy p, std::uint64_t sets, unsigned assoc)
{
    switch (p) {
    case ReplPolicy::Lru:
        return std::make_unique<LruPolicy>(sets, assoc);
    case ReplPolicy::Mac:
        return std::make_unique<MacPolicy>(sets, assoc);
    }
    fatal("invalid ReplPolicy ", static_cast<int>(p));
}

} // namespace pcmap::cache
