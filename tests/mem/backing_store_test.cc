/**
 * @file
 * Tests for the functional backing store: sparse semantics, essential
 * word discovery, incremental code maintenance, the one-call write
 * commit against the call sequence it replaces, and fault injection.
 */

#include <gtest/gtest.h>

#include "ecc/line_codec.h"
#include "mem/backing_store.h"
#include "sim/rng.h"

namespace pcmap {
namespace {

CacheLine
randomLine(Rng &rng)
{
    CacheLine l;
    for (auto &w : l.w)
        w = rng.next();
    return l;
}

TEST(BackingStore, UntouchedLinesReadAsZeroWithValidCodes)
{
    BackingStore bs;
    const StoredLine &s = bs.read(12345);
    EXPECT_EQ(s.data, CacheLine{});
    EXPECT_EQ(s.ecc, ecc::computeEccWord(CacheLine{}));
    EXPECT_EQ(s.pcc, 0u);
    EXPECT_EQ(bs.population(), 0u);
}

TEST(BackingStore, WriteLineStoresAndCodes)
{
    BackingStore bs;
    Rng rng(1);
    const CacheLine l = randomLine(rng);
    bs.writeLine(7, l);
    const StoredLine &s = bs.read(7);
    EXPECT_EQ(s.data, l);
    EXPECT_EQ(s.ecc, ecc::computeEccWord(l));
    EXPECT_EQ(s.pcc, ecc::computePccWord(l));
    EXPECT_EQ(bs.population(), 1u);
}

TEST(BackingStore, EssentialWordsAgainstZeroLine)
{
    BackingStore bs;
    CacheLine l{};
    l.w[3] = 99;
    EXPECT_EQ(bs.essentialWords(5, l), WordMask{1u << 3});
    EXPECT_EQ(bs.essentialWords(5, CacheLine{}), 0u);
}

TEST(BackingStore, EssentialWordsAfterWrite)
{
    BackingStore bs;
    Rng rng(2);
    const CacheLine l = randomLine(rng);
    bs.writeLine(9, l);
    CacheLine mod = l;
    mod.w[0] ^= 1;
    mod.w[5] ^= 2;
    EXPECT_EQ(bs.essentialWords(9, mod), WordMask{0x21});
    EXPECT_EQ(bs.essentialWords(9, l), 0u);
}

TEST(BackingStore, WriteWordsAppliesOnlyMaskedWords)
{
    BackingStore bs;
    Rng rng(3);
    const CacheLine original = randomLine(rng);
    bs.writeLine(11, original);

    CacheLine update = randomLine(rng);
    bs.writeWords(11, update, WordMask{0x05}); // words 0 and 2

    const StoredLine &s = bs.read(11);
    EXPECT_EQ(s.data.w[0], update.w[0]);
    EXPECT_EQ(s.data.w[2], update.w[2]);
    for (unsigned i : {1u, 3u, 4u, 5u, 6u, 7u})
        EXPECT_EQ(s.data.w[i], original.w[i]) << "word " << i;
}

TEST(BackingStore, IncrementalCodesStayConsistent)
{
    BackingStore bs;
    Rng rng(4);
    const std::uint64_t line = 42;
    bs.writeLine(line, randomLine(rng));
    // Apply a long random sequence of partial writes and confirm the
    // incrementally maintained codes always equal a fresh computation.
    for (int step = 0; step < 200; ++step) {
        CacheLine next = bs.read(line).data;
        const auto mask = static_cast<WordMask>(rng.below(256));
        for (unsigned i = 0; i < kWordsPerLine; ++i) {
            if (mask & (1u << i))
                next.w[i] = rng.next();
        }
        bs.writeWords(line, next, bs.essentialWords(line, next));
        const StoredLine &s = bs.read(line);
        ASSERT_EQ(s.ecc, ecc::computeEccWord(s.data)) << "step " << step;
        ASSERT_EQ(s.pcc, ecc::computePccWord(s.data)) << "step " << step;
    }
}

TEST(BackingStore, WriteWordsWithEmptyMaskIsNoOp)
{
    BackingStore bs;
    Rng rng(5);
    bs.writeWords(3, randomLine(rng), 0);
    EXPECT_EQ(bs.population(), 0u);
}

TEST(BackingStore, CorruptDataBitBreaksSecded)
{
    BackingStore bs;
    Rng rng(6);
    const CacheLine l = randomLine(rng);
    bs.writeLine(8, l);
    bs.corruptDataBit(8, 64 + 5); // bit 5 of word 1

    const StoredLine &s = bs.read(8);
    EXPECT_NE(s.data.w[1], l.w[1]);
    // SECDED sees and corrects the injected single-bit error.
    CacheLine probe = s.data;
    const ecc::LineCheckResult r = ecc::checkLine(probe, s.ecc);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.correctedWords, WordMask{1u << 1});
    EXPECT_EQ(probe.w[1], l.w[1]);
}

TEST(BackingStore, CorruptionBreaksParityReconstruction)
{
    BackingStore bs;
    Rng rng(7);
    const CacheLine l = randomLine(rng);
    bs.writeLine(2, l);
    bs.corruptDataBit(2, 7); // word 0

    const StoredLine &s = bs.read(2);
    // Reconstructing word 0 from parity returns the *original* value
    // (the parity word was computed before corruption), which differs
    // from the stored corrupted word — exactly the inconsistency the
    // deferred SECDED verify catches.
    const std::uint64_t rebuilt =
        ecc::reconstructWord(s.data, 0, s.pcc);
    EXPECT_EQ(rebuilt, l.w[0]);
    EXPECT_NE(rebuilt, s.data.w[0]);
}

TEST(BackingStore, ManyLinesSparsePopulation)
{
    BackingStore bs;
    Rng rng(8);
    for (std::uint64_t i = 0; i < 100; ++i) {
        CacheLine l{};
        l.w[0] = i + 1;
        bs.writeWords(i * 1000, l, 0x01);
    }
    EXPECT_EQ(bs.population(), 100u);
    EXPECT_EQ(bs.read(50 * 1000).data.w[0], 51u);
}

/** One write commit as four calls: the sequence commitWrite replaces. */
BackingStore::Commit
fourCallCommit(BackingStore &bs, std::uint64_t line, const CacheLine &data)
{
    BackingStore::Commit c;
    c.changed = bs.essentialWords(line, data);
    c.before = bs.read(line);
    bs.writeWords(line, data, c.changed);
    c.after = bs.read(line);
    return c;
}

void
expectSameCommit(const BackingStore::Commit &got,
                 const BackingStore::Commit &want)
{
    EXPECT_EQ(got.changed, want.changed);
    EXPECT_EQ(got.before.data, want.before.data);
    EXPECT_EQ(got.before.ecc, want.before.ecc);
    EXPECT_EQ(got.before.pcc, want.before.pcc);
    EXPECT_EQ(got.after.data, want.after.data);
    EXPECT_EQ(got.after.ecc, want.after.ecc);
    EXPECT_EQ(got.after.pcc, want.after.pcc);
}

TEST(BackingStoreCommit, UntouchedLinesMatchTheFourCallSequence)
{
    BackingStore one;
    BackingStore four;
    Rng rng(21);
    for (std::uint64_t line : {0ull, 63ull, 64ull, 1ull << 40}) {
        const CacheLine data = randomLine(rng);
        expectSameCommit(one.commitWrite(line, data),
                         fourCallCommit(four, line, data));
    }
    EXPECT_EQ(one.population(), four.population());
    EXPECT_EQ(one.population(), 4u);
}

TEST(BackingStoreCommit, WritesThatChangeNoWordMaterializeNothing)
{
    BackingStore one;
    BackingStore four;
    // Zeroes onto untouched lines, then a stored line onto itself.
    for (std::uint64_t line : {5ull, 6ull, 700ull}) {
        const BackingStore::Commit c = one.commitWrite(line, CacheLine{});
        expectSameCommit(c, fourCallCommit(four, line, CacheLine{}));
        EXPECT_EQ(c.changed, 0u);
    }
    EXPECT_EQ(one.population(), 0u);
    EXPECT_EQ(four.population(), 0u);

    Rng rng(22);
    const CacheLine data = randomLine(rng);
    one.commitWrite(9, data);
    fourCallCommit(four, 9, data);
    expectSameCommit(one.commitWrite(9, data), fourCallCommit(four, 9, data));
    EXPECT_EQ(one.population(), 1u);
    EXPECT_EQ(four.population(), 1u);
}

TEST(BackingStoreCommit, RandomLinesMatchTheFourCallSequence)
{
    BackingStore one;
    BackingStore four;
    Rng rng(23);
    for (int i = 0; i < 4000; ++i) {
        // A small line space so lines are rewritten; each write
        // changes a random subset of the current words.
        const std::uint64_t line = rng.below(300) * (1 + rng.below(3));
        CacheLine data = one.read(line).data;
        const CacheLine fresh = randomLine(rng);
        const auto words = static_cast<unsigned>(rng.below(256));
        for (unsigned w = 0; w < kWordsPerLine; ++w) {
            if (words & (1u << w))
                data.w[w] = fresh.w[w];
        }
        expectSameCommit(one.commitWrite(line, data),
                         fourCallCommit(four, line, data));
        ASSERT_FALSE(HasFailure()) << "iteration " << i;
    }
    EXPECT_EQ(one.population(), four.population());
    EXPECT_GT(one.population(), 0u);
    for (std::uint64_t line = 0; line < 900; ++line)
        ASSERT_EQ(one.read(line).data, four.read(line).data);
}

} // namespace
} // namespace pcmap
