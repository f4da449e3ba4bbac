/**
 * @file
 * Functional storage for the PCM main memory.
 *
 * Holds real line contents together with their SECDED ECC word and PCC
 * parity word, sparsely (untouched lines read as zero with matching
 * codes).  Keeping actual data makes the differential-write essential-
 * word discovery, the RoW parity reconstruction, and the deferred
 * SECDED verification genuine computations rather than modelled flags,
 * and lets tests inject bit errors end to end.
 *
 * Storage is a two-level page directory: a hash map from page index to
 * 64-line pages, with a one-entry MRU page cache in front of the hash.
 * Consecutive line addresses share a page, so a write commit (and any
 * read burst with spatial locality) hashes at most once.  Within a
 * page, lines are kept compactly in a vector indexed through the page's
 * touched-bit mask (popcount ranking), so memory stays proportional to
 * the number of touched lines no matter how scattered the footprint is.
 */

#ifndef PCMAP_MEM_BACKING_STORE_H
#define PCMAP_MEM_BACKING_STORE_H

#include <bit>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ecc/line_codec.h"
#include "mem/line.h"

namespace pcmap {

/** One stored line with its error-code words. */
struct StoredLine
{
    CacheLine data{};
    std::uint64_t ecc = 0; ///< 8 SECDED check bytes, one per word.
    std::uint64_t pcc = 0; ///< XOR parity of the 8 data words.
};

/** Sparse functional memory image, keyed by line address. */
class BackingStore
{
  public:
    /**
     * @param footprint_lines_hint  Expected number of distinct lines
     *        the run will touch (0 = unknown).  Purely a host-side
     *        allocation hint — it presizes the page directory and has
     *        no effect on simulated behaviour.
     */
    explicit BackingStore(std::uint64_t footprint_lines_hint = 0);

    /** Read the stored image of @p line_addr (zero line if untouched). */
    const StoredLine &read(std::uint64_t line_addr) const;

    /**
     * Essential words of writing @p new_data at @p line_addr: the mask
     * of words whose stored value differs (Section III-B).
     */
    WordMask essentialWords(std::uint64_t line_addr,
                            const CacheLine &new_data) const;

    /**
     * Commit @p new_data, updating the ECC and PCC words incrementally
     * for exactly the words in @p changed.
     * @return The mask actually applied (== @p changed).
     */
    WordMask writeWords(std::uint64_t line_addr, const CacheLine &new_data,
                        WordMask changed);

    /** What one differential write commit found and left. */
    struct Commit
    {
        WordMask changed = 0; ///< words whose stored value differed
        StoredLine before;    ///< the line and its codes before...
        StoredLine after;     ///< ...and after the commit
    };

    /**
     * Commit @p new_data differentially: write exactly the words that
     * differ from the stored line, updating the codes incrementally.
     * The same as essentialWords, read, writeWords and read again, in
     * one directory lookup; a commit that changes no word materializes
     * nothing.
     */
    Commit commitWrite(std::uint64_t line_addr, const CacheLine &new_data);

    /** Commit a full line unconditionally, recomputing all codes. */
    void writeLine(std::uint64_t line_addr, const CacheLine &new_data);

    /**
     * Corrupt stored bits for fault-injection experiments: flips bit
     * @p bit (0..511) of the stored data without touching the codes,
     * so SECDED will see a genuine error.
     */
    void corruptDataBit(std::uint64_t line_addr, unsigned bit);

    /** Number of lines materialized in the sparse image. */
    std::size_t population() const { return touchedLines; }

  private:
    static constexpr unsigned kPageShift = 6;
    static constexpr unsigned kPageLines = 1u << kPageShift;
    static constexpr std::uint64_t kLineIdxMask = kPageLines - 1;

    /**
     * One 64-line page: the touched mask says which lines exist, and
     * the vector holds exactly those lines in ascending line-index
     * order.  Line i lives at rank popcount(touched & ((1 << i) - 1)).
     */
    struct Page
    {
        std::uint64_t touched = 0;
        std::vector<StoredLine> lines;
    };

    /** Page for @p page_idx through the MRU cache, creating it. */
    Page &pageFor(std::uint64_t page_idx);

    /** Materialize @p line_addr (zero-initialized on first touch). */
    StoredLine &materialize(std::uint64_t line_addr);

    /** Write the @p changed words of @p new_data into @p stored. */
    static void applyWords(StoredLine &stored, const CacheLine &new_data,
                           WordMask changed);

    // unordered_map is node-based, so Page addresses are stable across
    // inserts and the MRU pointer survives directory growth.
    std::unordered_map<std::uint64_t, Page> pages;
    StoredLine zeroLine;
    std::size_t touchedLines = 0;

    // One-entry MRU page cache (mutable: read() refreshes it).
    mutable std::uint64_t mruIdx = ~std::uint64_t{0};
    mutable Page *mruPage = nullptr;
};

} // namespace pcmap

#endif // PCMAP_MEM_BACKING_STORE_H
