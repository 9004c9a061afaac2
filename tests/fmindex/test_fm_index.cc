#include <gtest/gtest.h>

#include <algorithm>

#include "common/dna.hh"
#include "common/rng.hh"
#include "fmindex/fm_index.hh"

namespace exma {
namespace {

std::vector<Base>
randomSeq(u64 len, u64 seed)
{
    Rng rng(seed);
    std::vector<Base> s(len);
    for (auto &b : s)
        b = static_cast<Base>(rng.below(4));
    return s;
}

/** Brute-force occurrence positions of q in ref. */
std::vector<u64>
naiveFind(const std::vector<Base> &ref, const std::vector<Base> &q)
{
    std::vector<u64> hits;
    if (q.empty() || q.size() > ref.size())
        return hits;
    for (u64 i = 0; i + q.size() <= ref.size(); ++i)
        if (std::equal(q.begin(), q.end(), ref.begin() +
                                               static_cast<std::ptrdiff_t>(i)))
            hits.push_back(i);
    return hits;
}

TEST(FmIndex, PaperExampleTag)
{
    // Fig. 3(e): query TAG over CATAGA ends with interval rows {6},
    // and SA[6] = 2.
    auto ref = encodeSeq("CATAGA");
    FmIndex fm(ref);
    auto iv = fm.search(encodeSeq("TAG"));
    EXPECT_EQ(iv.low, 6u);
    EXPECT_EQ(iv.high, 7u);
    EXPECT_EQ(fm.locate(6), 2u);
}

TEST(FmIndex, PaperExampleIntermediateIntervals)
{
    // Fig. 3(e): (0,7) -> G -> (5,6) -> A -> (2,3)?? The paper's trace
    // is (0,7)->(5,6)->(2,3)->(6,7); verify each step.
    auto ref = encodeSeq("CATAGA");
    FmIndex fm(ref);
    Interval iv = fm.fullInterval();
    EXPECT_EQ(iv, (Interval{0, 7}));
    iv = fm.extend(iv, charToBase('G'));
    EXPECT_EQ(iv, (Interval{5, 6}));
    iv = fm.extend(iv, charToBase('A'));
    EXPECT_EQ(iv, (Interval{2, 3}));
    iv = fm.extend(iv, charToBase('T'));
    EXPECT_EQ(iv, (Interval{6, 7}));
}

TEST(FmIndex, CountArrayMatchesPaper)
{
    // Fig. 3(c): Count = A:1, C:4, G:5, T:6 (with $ counted below A).
    auto ref = encodeSeq("CATAGA");
    FmIndex fm(ref);
    EXPECT_EQ(fm.count(1), 1u); // A
    EXPECT_EQ(fm.count(2), 4u); // C
    EXPECT_EQ(fm.count(3), 5u); // G
    EXPECT_EQ(fm.count(4), 6u); // T
}

TEST(FmIndex, OccMatchesPaperSample)
{
    // Fig. 3(b): Occ(C,5) = 1 over BWT = AGTC$AA.
    auto ref = encodeSeq("CATAGA");
    FmIndex fm(ref);
    EXPECT_EQ(fm.occ(2, 5), 1u);
}

TEST(FmIndex, SearchCountMatchesNaive)
{
    auto ref = randomSeq(5000, 3);
    FmIndex fm(ref);
    Rng rng(99);
    for (int t = 0; t < 200; ++t) {
        const u64 qlen = 1 + rng.below(12);
        std::vector<Base> q(qlen);
        for (auto &b : q)
            b = static_cast<Base>(rng.below(4));
        auto expect = naiveFind(ref, q);
        auto iv = fm.search(q);
        EXPECT_EQ(iv.count(), expect.size()) << "trial " << t;
    }
}

TEST(FmIndex, SearchOfPresentSubstringsAlwaysFound)
{
    auto ref = randomSeq(3000, 5);
    FmIndex fm(ref);
    Rng rng(7);
    for (int t = 0; t < 100; ++t) {
        const u64 len = 5 + rng.below(40);
        const u64 pos = rng.below(ref.size() - len);
        std::vector<Base> q(ref.begin() + static_cast<std::ptrdiff_t>(pos),
                            ref.begin() +
                                static_cast<std::ptrdiff_t>(pos + len));
        EXPECT_GE(fm.search(q).count(), 1u);
    }
}

TEST(FmIndex, LocateMatchesNaive)
{
    auto ref = randomSeq(2000, 21);
    FmIndex fm(ref);
    Rng rng(22);
    for (int t = 0; t < 60; ++t) {
        const u64 len = 4 + rng.below(10);
        const u64 pos = rng.below(ref.size() - len);
        std::vector<Base> q(ref.begin() + static_cast<std::ptrdiff_t>(pos),
                            ref.begin() +
                                static_cast<std::ptrdiff_t>(pos + len));
        auto iv = fm.search(q);
        auto got = fm.locateAll(iv);
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, naiveFind(ref, q));
    }
}

TEST(FmIndex, EmptyQueryGivesFullInterval)
{
    auto ref = randomSeq(100, 1);
    FmIndex fm(ref);
    EXPECT_EQ(fm.search({}), fm.fullInterval());
}

TEST(FmIndex, AbsentQueryGivesEmptyInterval)
{
    // A query longer than the reference can never match.
    auto ref = encodeSeq("ACGT");
    FmIndex fm(ref);
    auto q = encodeSeq("ACGTACGTA");
    EXPECT_TRUE(fm.search(q).empty());
}

TEST(FmIndex, LfWalkReconstructsText)
{
    auto ref = randomSeq(500, 31);
    FmIndex fm(ref);
    // Walk LF from the row whose suffix is the full text (located at
    // the row with BWT symbol $): reading BWT symbols along the walk
    // yields the text reversed.
    u64 row = 0; // row 0 is the sentinel suffix; bwt[0] = last char
    std::vector<Base> rebuilt;
    for (u64 i = 0; i < ref.size(); ++i) {
        u8 sym = fm.bwtAt(row);
        ASSERT_NE(sym, 0u);
        rebuilt.push_back(static_cast<Base>(sym - 1));
        row = fm.lf(row);
    }
    std::reverse(rebuilt.begin(), rebuilt.end());
    EXPECT_EQ(rebuilt, ref);
}

TEST(FmIndex, OccIsConsistentWithBwt)
{
    auto ref = randomSeq(700, 41);
    FmIndex fm(ref);
    for (u8 sym = 0; sym < 5; ++sym) {
        u64 prev = 0;
        for (u64 i = 1; i <= fm.size(); ++i) {
            u64 cur = fm.occ(sym, i);
            EXPECT_EQ(cur - prev, fm.bwtAt(i - 1) == sym ? 1u : 0u);
            prev = cur;
        }
    }
}

TEST(FmIndex, TraceRecordsTwoRowsPerIteration)
{
    auto ref = randomSeq(4000, 51);
    FmIndex fm(ref);
    auto q = randomSeq(20, 52);
    SearchTrace trace;
    fm.search(q, &trace);
    EXPECT_LE(trace.occ_rows.size(), 2 * q.size());
    EXPECT_EQ(trace.occ_rows.size() % 2, 0u);
    // Each iteration records the rank blocks of the interval it
    // extends: both ends in 64-row blocks.
    Interval iv = fm.fullInterval();
    for (size_t t = 0; t < trace.occ_rows.size(); t += 2) {
        EXPECT_EQ(trace.occ_rows[t], iv.low / 64) << "t=" << t;
        EXPECT_EQ(trace.occ_rows[t + 1], iv.high / 64) << "t=" << t;
        iv = fm.extend(iv, q[q.size() - 1 - t / 2]);
    }
}

} // namespace
} // namespace exma
