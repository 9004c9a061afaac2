#include <gtest/gtest.h>

#include "common/rng.hh"
#include "fmindex/fm_index.hh"
#include "fmindex/suffix_array.hh"
#include "genome/reference.hh"
#include "lisa/lisa.hh"

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

TEST(IpBwt, EntriesAreSorted)
{
    auto ref = randomSeq(2000, 1);
    IpBwt ip(ref, 4);
    for (u64 i = 0; i + 1 < ip.rows(); ++i) {
        const bool lt = ip.kmer5(i) < ip.kmer5(i + 1) ||
                        (ip.kmer5(i) == ip.kmer5(i + 1) &&
                         ip.pairedRow(i) < ip.pairedRow(i + 1));
        ASSERT_TRUE(lt) << "at " << i;
    }
}

TEST(IpBwt, PaperExampleRowZero)
{
    // Fig. 5(a): for G = CATAGA and k = 2, the row 0 of the IP-BWT is
    // [$C, 3]: row 0 of the BW-matrix is $CATAGA; swapping the first 2
    // and last 5 symbols gives ATAGA$C = BW-matrix row 3.
    auto ref = encodeSeq("CATAGA");
    IpBwt ip(ref, 2);
    // $C in base-5 coding: $=0, C=2 -> 0*5+2 = 2.
    EXPECT_EQ(ip.kmer5(0), 2u);
    EXPECT_EQ(ip.pairedRow(0), 3u);
}

TEST(IpBwt, PairedRowsFormPermutation)
{
    auto ref = randomSeq(1500, 3);
    IpBwt ip(ref, 3);
    std::vector<bool> seen(ip.rows(), false);
    for (u64 i = 0; i < ip.rows(); ++i) {
        ASSERT_LT(ip.pairedRow(i), ip.rows());
        ASSERT_FALSE(seen[ip.pairedRow(i)]);
        seen[ip.pairedRow(i)] = true;
    }
}

class IpBwtSearchTest : public ::testing::TestWithParam<int>
{
};

TEST_P(IpBwtSearchTest, SearchEqualsFmIndex)
{
    const int k = GetParam();
    auto ref = randomSeq(3000, 40 + static_cast<u64>(k));
    auto sa = buildSuffixArray(ref);
    FmIndex fm(ref, sa);
    IpBwt ip(ref, sa, k);
    Rng rng(50 + static_cast<u64>(k));
    for (int t = 0; t < 120; ++t) {
        const u64 len = 1 + rng.below(30);
        std::vector<Base> q;
        if (t % 2 == 0 && len <= ref.size()) {
            const u64 pos = rng.below(ref.size() - len + 1);
            q.assign(ref.begin() + static_cast<std::ptrdiff_t>(pos),
                     ref.begin() + static_cast<std::ptrdiff_t>(pos + len));
        } else {
            q.resize(len);
            for (auto &b : q)
                b = static_cast<Base>(rng.below(4));
        }
        const Interval expect = fm.search(q);
        const Interval got = ip.search(q);
        if (expect.empty())
            EXPECT_TRUE(got.empty()) << "k=" << k << " t=" << t;
        else
            EXPECT_EQ(got, expect) << "k=" << k << " t=" << t;
    }
}

INSTANTIATE_TEST_SUITE_P(Steps, IpBwtSearchTest,
                         ::testing::Values(2, 3, 4, 5, 8));

TEST(IpBwt, SearchWithAsksLowThenHighPerChunk)
{
    // LisaStats::error_samples records lookups in call order, so the
    // chunk walk must ask for each chunk's low bound before its high.
    auto ref = randomSeq(3000, 15);
    IpBwt ip(ref, 4);
    // A present query, so no chunk empties the interval: one padded
    // chunk of 2 symbols, then 2 full k-mers.
    const std::vector<Base> q(ref.begin() + 100, ref.begin() + 110);
    struct Call
    {
        u64 code5, pos, answer;
    };
    std::vector<Call> calls;
    const Interval iv = ip.searchWith(q, [&](u64 code5, u64 pos) {
        const u64 answer = ip.lowerBound(code5, pos);
        calls.push_back({code5, pos, answer});
        return answer;
    });
    EXPECT_EQ(iv, ip.search(q));
    ASSERT_EQ(calls.size(), 6u);
    EXPECT_EQ(calls[0].pos, 0u);
    EXPECT_EQ(calls[1].pos, ip.rows());
    for (size_t c = 2; c < calls.size(); c += 2) {
        EXPECT_EQ(calls[c].code5, calls[c + 1].code5) << "c=" << c;
        EXPECT_EQ(calls[c].pos, calls[c - 2].answer) << "c=" << c;
        EXPECT_EQ(calls[c + 1].pos, calls[c - 1].answer) << "c=" << c;
    }
}

TEST(IpBwt, IterationsPerSearch)
{
    auto ref = randomSeq(500, 5);
    IpBwt ip(ref, 4);
    EXPECT_EQ(ip.iterationsFor(16), 4u);
    EXPECT_EQ(ip.iterationsFor(17), 5u);
    EXPECT_EQ(ip.iterationsFor(3), 1u);
}

TEST(Lisa, LearnedSearchEqualsBinarySearch)
{
    auto ref = randomSeq(6000, 7);
    auto sa = buildSuffixArray(ref);
    FmIndex fm(ref, sa);
    IpBwt ip(ref, sa, 5);
    Lisa::Config cfg;
    cfg.group_symbols = 3;
    cfg.leaf_size = 64;
    Lisa lisa(ip, cfg);
    Rng rng(8);
    for (int t = 0; t < 100; ++t) {
        const u64 len = 1 + rng.below(25);
        std::vector<Base> q(len);
        for (auto &b : q)
            b = static_cast<Base>(rng.below(4));
        const Interval expect = fm.search(q);
        const Interval got = lisa.search(q);
        if (expect.empty())
            EXPECT_TRUE(got.empty()) << "t=" << t;
        else
            EXPECT_EQ(got, expect) << "t=" << t;
    }
}

TEST(Lisa, StatsAccumulatePerIteration)
{
    auto ref = randomSeq(4000, 9);
    IpBwt ip(ref, 4);
    Lisa lisa(ip, {});
    LisaStats stats;
    // 12 symbols = 3 chunks = 6 lower-bound queries (low+high each).
    auto q = randomSeq(12, 10);
    lisa.search(q, &stats);
    EXPECT_LE(stats.iterations, 6u);
    EXPECT_GE(stats.iterations, 2u); // may stop early on empty interval
    EXPECT_EQ(stats.error_samples.size(), stats.iterations);
}

TEST(Lisa, ParamCountGrowsWithFinerLeaves)
{
    auto ref = randomSeq(8000, 11);
    IpBwt ip(ref, 8);
    Lisa::Config coarse, fine;
    // Few radix groups so each group holds many entries and the leaf
    // granularity actually matters.
    coarse.group_symbols = 2;
    fine.group_symbols = 2;
    coarse.leaf_size = 4096;
    fine.leaf_size = 64;
    Lisa a(ip, coarse), b(ip, fine);
    EXPECT_GT(b.paramCount(), a.paramCount());
}

TEST(Lisa, PartialChunkOnlyQuery)
{
    // Query shorter than k exercises only the padded path.
    auto ref = randomSeq(2000, 13);
    auto sa = buildSuffixArray(ref);
    FmIndex fm(ref, sa);
    IpBwt ip(ref, sa, 8);
    Lisa lisa(ip, {});
    Rng rng(14);
    for (int t = 0; t < 50; ++t) {
        const u64 len = 1 + rng.below(7);
        std::vector<Base> q(len);
        for (auto &b : q)
            b = static_cast<Base>(rng.below(4));
        EXPECT_EQ(lisa.search(q).count(), fm.search(q).count());
    }
}

} // namespace
} // namespace exma
