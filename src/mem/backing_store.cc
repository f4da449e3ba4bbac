#include "mem/backing_store.h"

#include "sim/log.h"

namespace pcmap {

BackingStore::BackingStore(std::uint64_t footprint_lines_hint)
{
    zeroLine.ecc = ecc::computeEccWord(zeroLine.data);
    zeroLine.pcc = ecc::computePccWord(zeroLine.data);
    if (footprint_lines_hint > 0) {
        pages.reserve(static_cast<std::size_t>(
            footprint_lines_hint / kPageLines + 1));
    }
}

const StoredLine &
BackingStore::read(std::uint64_t line_addr) const
{
    const std::uint64_t page_idx = line_addr >> kPageShift;
    const Page *p;
    if (page_idx == mruIdx) {
        p = mruPage;
    } else {
        auto it = pages.find(page_idx);
        if (it == pages.end())
            return zeroLine;
        p = &it->second;
        mruIdx = page_idx;
        mruPage = const_cast<Page *>(p);
    }
    const std::uint64_t bit = 1ull << (line_addr & kLineIdxMask);
    if (!(p->touched & bit))
        return zeroLine;
    return p->lines[static_cast<std::size_t>(
        std::popcount(p->touched & (bit - 1)))];
}

WordMask
BackingStore::essentialWords(std::uint64_t line_addr,
                             const CacheLine &new_data) const
{
    return read(line_addr).data.diffMask(new_data);
}

BackingStore::Page &
BackingStore::pageFor(std::uint64_t page_idx)
{
    if (page_idx == mruIdx)
        return *mruPage;
    auto [it, inserted] = pages.try_emplace(page_idx);
    mruIdx = page_idx;
    mruPage = &it->second;
    return it->second;
}

StoredLine &
BackingStore::materialize(std::uint64_t line_addr)
{
    Page &p = pageFor(line_addr >> kPageShift);
    const std::uint64_t bit = 1ull << (line_addr & kLineIdxMask);
    const auto pos = static_cast<std::size_t>(
        std::popcount(p.touched & (bit - 1)));
    if (!(p.touched & bit)) {
        p.lines.insert(p.lines.begin() + static_cast<std::ptrdiff_t>(pos),
                       zeroLine);
        p.touched |= bit;
        ++touchedLines;
    }
    return p.lines[pos];
}

void
BackingStore::applyWords(StoredLine &stored, const CacheLine &new_data,
                         WordMask changed)
{
    stored.ecc = ecc::updateEccWord(stored.ecc, new_data, changed);
    stored.pcc =
        ecc::updatePccWord(stored.pcc, stored.data, new_data, changed);
    for (unsigned i = 0; i < kWordsPerLine; ++i) {
        if (changed & (1u << i))
            stored.data.w[i] = new_data.w[i];
    }
}

WordMask
BackingStore::writeWords(std::uint64_t line_addr, const CacheLine &new_data,
                         WordMask changed)
{
    if (changed != 0)
        applyWords(materialize(line_addr), new_data, changed);
    return changed;
}

BackingStore::Commit
BackingStore::commitWrite(std::uint64_t line_addr, const CacheLine &new_data)
{
    Commit c;
    c.before = read(line_addr);
    c.changed = c.before.data.diffMask(new_data);
    c.after = c.before;
    if (c.changed != 0) {
        // read() left the line's page (if any) in the MRU slot, so
        // materialize() finds it without a second hash.
        StoredLine &stored = materialize(line_addr);
        applyWords(stored, new_data, c.changed);
        c.after = stored;
    }
    return c;
}

void
BackingStore::writeLine(std::uint64_t line_addr, const CacheLine &new_data)
{
    StoredLine &stored = materialize(line_addr);
    stored.data = new_data;
    stored.ecc = ecc::computeEccWord(new_data);
    stored.pcc = ecc::computePccWord(new_data);
}

void
BackingStore::corruptDataBit(std::uint64_t line_addr, unsigned bit)
{
    pcmap_assert(bit < kLineBytes * 8);
    StoredLine &stored = materialize(line_addr);
    const unsigned word = bit / 64;
    stored.data.w[word] ^= 1ull << (bit % 64);
}

} // namespace pcmap
