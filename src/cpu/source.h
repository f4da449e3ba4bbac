/**
 * @file
 * The interface between a core and whatever produces its memory
 * traffic (the synthetic generators).
 */

#ifndef PCMAP_CPU_SOURCE_H
#define PCMAP_CPU_SOURCE_H

#include <cstdint>

#include "mem/line.h"

namespace pcmap {

/**
 * One main-memory operation in a core's instruction stream.
 *
 * @p gapInsts instructions of non-memory work retire before the
 * operation issues.  Reads model LLC load misses; writes model LLC
 * write-backs and carry the full new line content.
 */
struct MemOp
{
    std::uint64_t gapInsts = 0;
    bool isWrite = false;
    std::uint64_t addr = 0;
    CacheLine data{}; ///< Write-back payload (writes only).
};

/** Produces the memory-operation stream of one core. */
class RequestSource
{
  public:
    virtual ~RequestSource() = default;

    /**
     * Produce the next operation.
     * @return false when the stream is exhausted (the core then runs
     *         pure compute until its instruction budget is spent).
     */
    virtual bool next(MemOp &op) = 0;
};

} // namespace pcmap

#endif // PCMAP_CPU_SOURCE_H
