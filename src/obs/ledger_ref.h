/**
 * @file
 * LedgerRef: the 8-byte handle a request carries to its phase ledger.
 *
 * Kept apart from attrib.h so that mem/request.h can hold one by value
 * without pulling in the collector.
 */

#ifndef PCMAP_OBS_LEDGER_REF_H
#define PCMAP_OBS_LEDGER_REF_H

#include <cstdint>

namespace pcmap::obs::attrib {

/**
 * A slot in the AttribCollector's ledger slab plus the generation the
 * slot had when the ledger was opened.  A slot's generation is odd
 * while a ledger lives in it and moves on when the ledger is sampled
 * or discarded, so a ref that outlives its ledger no longer resolves.
 * The default ref (generation 0) is null: attribution is off or the
 * request has no ledger yet.
 */
struct LedgerRef
{
    std::uint32_t slot = 0;
    std::uint32_t generation = 0;

    explicit operator bool() const { return generation != 0; }
};

} // namespace pcmap::obs::attrib

#endif // PCMAP_OBS_LEDGER_REF_H
