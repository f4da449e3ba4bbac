/**
 * @file
 * Heap-allocation counting from outside the simulator.
 *
 * alloc_count.cc replaces the global operator new/delete for the
 * benchmark binary only.  Counting is off until enable() and costs one
 * relaxed atomic load per allocation while off, so untraced timings see
 * the same allocator as the simulator's own tools.
 */

#ifndef PCMAP_BENCH_ALLOC_COUNT_H
#define PCMAP_BENCH_ALLOC_COUNT_H

#include <cstdint>

namespace pcmap::repobench::alloc {

/** Allocation calls and requested bytes since counting began. */
struct Tally
{
    std::uint64_t calls = 0;
    std::uint64_t bytes = 0;

    Tally operator-(const Tally &o) const
    {
        return {calls - o.calls, bytes - o.bytes};
    }
};

/** Switch counting on or off (counts persist across switches). */
void enable(bool on);

/** Totals counted so far. */
Tally tally();

} // namespace pcmap::repobench::alloc

#endif // PCMAP_BENCH_ALLOC_COUNT_H
