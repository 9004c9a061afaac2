#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "common/dna.hh"
#include "common/rng.hh"
#include "fmindex/suffix_array.hh"
#include "genome/reference.hh"

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

/** @p period repeated to @p len symbols. */
std::vector<Base>
periodicSeq(const std::string &period, u64 len)
{
    const std::vector<Base> unit = encodeSeq(period);
    std::vector<Base> s(len);
    for (u64 i = 0; i < len; ++i)
        s[i] = unit[i % unit.size()];
    return s;
}

/**
 * O(n) proof that @p sa is the suffix array of text·$ (Burkhardt and
 * Kärkkäinen): it is a permutation of [0, n], and each adjacent pair
 * of suffixes orders strictly by (first symbol, rank of the suffix one
 * position on), with $ below every symbol. The suffix array is unique,
 * so an array that passes is the right one.
 */
::testing::AssertionResult
isSuffixArrayOf(const std::vector<u8> &text, const std::vector<SaIndex> &sa)
{
    const u64 n = text.size() + 1;
    if (sa.size() != n)
        return ::testing::AssertionFailure()
               << sa.size() << " entries for " << n << " suffixes";
    constexpr u64 kUnset = ~u64{0};
    std::vector<u64> isa(n, kUnset);
    for (u64 r = 0; r < n; ++r) {
        if (sa[r] >= n || isa[sa[r]] != kUnset)
            return ::testing::AssertionFailure()
                   << "not a permutation: SA[" << r << "] = " << sa[r];
        isa[sa[r]] = r;
    }
    auto key = [&](u64 p) {
        return p + 1 < n ? std::pair<u64, u64>{text[p] + u64{1}, isa[p + 1]}
                         : std::pair<u64, u64>{0, 0};
    };
    for (u64 r = 0; r + 1 < n; ++r)
        if (!(key(sa[r]) < key(sa[r + 1])))
            return ::testing::AssertionFailure()
                   << "suffixes " << sa[r] << " and " << sa[r + 1]
                   << " at ranks " << r << " and " << r + 1
                   << " are out of order";
    return ::testing::AssertionSuccess();
}

TEST(SuffixArray, KnownExampleFromPaper)
{
    // Fig. 3(a): G = CATAGA, SA column = [6,5,3,1,0,4,2].
    auto ref = encodeSeq("CATAGA");
    auto sa = buildSuffixArray(ref);
    const std::vector<SaIndex> expect = {6, 5, 3, 1, 0, 4, 2};
    EXPECT_EQ(sa, expect);
}

TEST(SuffixArray, SingleBase)
{
    auto sa = buildSuffixArray(encodeSeq("A"));
    EXPECT_EQ(sa, (std::vector<SaIndex>{1, 0}));
}

TEST(SuffixArray, AllSameSymbol)
{
    auto ref = encodeSeq("AAAAAAAA");
    auto sa = buildSuffixArray(ref);
    // Suffixes sort by decreasing length... shortest (sentinel) first.
    for (size_t i = 0; i < sa.size(); ++i)
        EXPECT_EQ(sa[i], ref.size() - i);
}

TEST(SuffixArray, PeriodicString)
{
    auto ref = encodeSeq("ACACACACAC");
    EXPECT_EQ(buildSuffixArray(ref), buildSuffixArrayNaive(ref));
}

TEST(SuffixArray, MatchesNaiveOnManyRandomStrings)
{
    for (u64 seed = 0; seed < 30; ++seed) {
        const u64 len = 1 + seed * 13 % 257;
        auto ref = randomSeq(len, seed + 1000);
        EXPECT_EQ(buildSuffixArray(ref), buildSuffixArrayNaive(ref))
            << "seed=" << seed << " len=" << len;
    }
}

TEST(SuffixArray, IsPermutation)
{
    // A plain sort, apart from the checker: every suffix exactly once.
    auto ref = randomSeq(100000, 7);
    auto sa = buildSuffixArray(ref);
    ASSERT_EQ(sa.size(), ref.size() + 1);
    std::vector<SaIndex> sorted(sa);
    std::sort(sorted.begin(), sorted.end());
    for (size_t i = 0; i < sorted.size(); ++i)
        ASSERT_EQ(sorted[i], i);
}

TEST(SuffixArray, CheckerRejectsWrongArrays)
{
    auto ref = randomSeq(1000, 3);
    auto sa = buildSuffixArray(ref);
    ASSERT_TRUE(isSuffixArrayOf(ref, sa));
    auto swapped = sa;
    std::swap(swapped[400], swapped[401]);
    EXPECT_FALSE(isSuffixArrayOf(ref, swapped));
    auto repeated = sa;
    repeated[10] = repeated[11];
    EXPECT_FALSE(isSuffixArrayOf(ref, repeated));
}

TEST(SuffixArray, SuffixesAreSorted)
{
    auto ref = randomSeq(100000, 7);
    EXPECT_TRUE(isSuffixArrayOf(ref, buildSuffixArray(ref)));
}

TEST(SuffixArray, RepeatRichReferenceIsSorted)
{
    // Copied repeats and tandem runs make long equal LMS substrings and
    // several recursion levels.
    ReferenceSpec spec;
    spec.length = 1 << 20;
    spec.repeat_fraction = 0.9;
    spec.str_fraction = 0.3;
    spec.seed = 5;
    const std::vector<Base> ref = generateReference(spec);
    EXPECT_TRUE(isSuffixArrayOf(ref, buildSuffixArray(ref)));
}

TEST(SuffixArray, PeriodicTextsAreSorted)
{
    // Runs of equal LMS substrings: all-A has no LMS suffix but the
    // sentinel's, and (AC)* and (ACG)* reduce to one repeated name.
    for (const char *period : {"A", "AC", "ACG"}) {
        const std::vector<Base> ref = periodicSeq(period, 100000);
        EXPECT_TRUE(isSuffixArrayOf(ref, buildSuffixArray(ref)))
            << "period " << period;
    }
}

TEST(SuffixArray, TypeWordEdgesAreSorted)
{
    // Texts of 64, 128 and 4096 symbols with the sentinel, and one
    // either side: the type and LMS words' last-word and carry cases.
    for (const u64 len : {63, 64, 65, 127, 128, 129, 4095, 4096, 4097}) {
        const std::vector<Base> ref = randomSeq(len, len);
        EXPECT_TRUE(isSuffixArrayOf(ref, buildSuffixArray(ref)))
            << "len " << len;
    }
}

TEST(SuffixArray, SentinelFirst)
{
    auto ref = randomSeq(5000, 13);
    auto sa = buildSuffixArray(ref);
    EXPECT_EQ(sa[0], ref.size());
}

TEST(SuffixArray, GenericAlphabetSixSymbols)
{
    // Exercise the generic path used by the FMD index.
    Rng rng(17);
    std::vector<u8> text(100000);
    for (auto &c : text)
        c = static_cast<u8>(rng.below(6));
    EXPECT_TRUE(isSuffixArrayOf(text, buildSuffixArrayGeneric(text, 6)));
}

TEST(SuffixArray, GenericAlphabetFullByte)
{
    // 255 symbols plus the sentinel fill the byte-wide top level.
    Rng rng(19);
    std::vector<u8> text(20000);
    for (auto &c : text)
        c = static_cast<u8>(rng.below(255));
    EXPECT_TRUE(isSuffixArrayOf(text, buildSuffixArrayGeneric(text, 255)));
}

class SuffixArrayLengthTest : public ::testing::TestWithParam<u64>
{
};

TEST_P(SuffixArrayLengthTest, MatchesNaive)
{
    auto ref = randomSeq(GetParam(), GetParam() * 31 + 5);
    EXPECT_EQ(buildSuffixArray(ref), buildSuffixArrayNaive(ref));
}

INSTANTIATE_TEST_SUITE_P(Lengths, SuffixArrayLengthTest,
                         ::testing::Values(1, 2, 3, 4, 7, 15, 16, 17, 31,
                                           64, 100, 255, 256, 999, 2048));

} // namespace
} // namespace exma
