/**
 * @file
 * Replacement policies for the set-associative cache array.
 *
 * A policy's whole state is one rank byte in each way's packed
 * metadata, so a victim search reads the same 16-byte records a tag
 * lookup does and nothing else.  Swapping policies cannot touch the
 * functional behaviour of hits and fills — only which way gets
 * evicted.  Two policies:
 *
 *  - Lru: the rank is the way's age in its set (0 = most recent; the
 *    k valid ways of a set hold the ranks 0..k-1), and the victim is
 *    the oldest valid way.
 *  - Mac: a MAC-style multilevel policy (PAPERS.md, "MAC: a novel
 *    systematically multilevel cache replacement policy for PCM
 *    memory"): the rank is a small level counter — fills insert in
 *    the middle, hits promote, victim search demotes the whole set —
 *    and among the lowest level, clean lines are evicted before dirty
 *    ones.  Keeping dirty lines resident longer gives them more
 *    chances to coalesce stores, which is what cuts PCM write traffic
 *    relative to LRU.
 *
 * Either way an invalid way wins over every valid one, first way
 * first.
 */

#ifndef PCMAP_CACHE_REPLACEMENT_H
#define PCMAP_CACHE_REPLACEMENT_H

#include <cstdint>
#include <string>

#include "mem/line.h"

namespace pcmap::cache {

/** Which replacement policy a cache structure runs. */
enum class ReplPolicy : std::uint8_t { Lru, Mac };

/** Canonical lower-case name ("lru", "mac"). */
const char *replPolicyName(ReplPolicy p);

/** Parse a policy name; fatal()s with suggestions on unknown input. */
ReplPolicy replPolicyFromName(const std::string &name);

/**
 * Packed metadata of one way: everything a lookup or a victim search
 * reads.  Sixteen bytes, so an 8-way set spans two host cache lines;
 * the 64-byte line data live in a separate array.
 */
struct WayMeta
{
    std::uint64_t tag = 0;
    std::uint32_t writer = 0; ///< last core to dirty the line
    WordMask dirty = 0;       ///< words written while resident
    std::uint8_t rank = 0;    ///< replacement state (LRU age, MAC level)
    bool valid = false;
};
static_assert(sizeof(WayMeta) == 16, "one 8-way set in two lines");

/** Way @p w of @p set was hit (load or store). */
void replTouch(ReplPolicy p, WayMeta *set, unsigned assoc, unsigned w);

/** A line was just installed into way @p w of @p set. */
void replInstall(ReplPolicy p, WayMeta *set, unsigned assoc, unsigned w);

/** Pick the victim way of @p set (MAC ages the set as it searches). */
unsigned replVictim(ReplPolicy p, WayMeta *set, unsigned assoc);

} // namespace pcmap::cache

#endif // PCMAP_CACHE_REPLACEMENT_H
