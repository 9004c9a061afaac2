#include <gtest/gtest.h>

#include <algorithm>

#include "common/branchless.hh"
#include "common/dna.hh"
#include "common/rng.hh"
#include "core/exma_table.hh"
#include "fmindex/fm_index.hh"
#include "fmindex/kmer_occ.hh"

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

/** Window of k symbols preceding row r, in 0..4 BWT coding over ref·$. */
std::vector<u8>
naiveWindow(const std::vector<Base> &ref, const std::vector<SaIndex> &sa,
            u64 r, int k)
{
    const u64 nn = ref.size() + 1;
    std::vector<u8> w(static_cast<size_t>(k));
    for (int j = 0; j < k; ++j) {
        u64 idx = (sa[r] + nn - static_cast<u64>(k - j)) % nn;
        w[static_cast<size_t>(j)] =
            idx == ref.size() ? 0 : static_cast<u8>(ref[idx] + 1);
    }
    return w;
}

TEST(KmerOccTable, FrequenciesSumToRowsMinusSentinelWindows)
{
    auto ref = randomSeq(2000, 1);
    for (int k : {1, 2, 3, 5}) {
        KmerOccTable tab(ref, k);
        u64 total = 0;
        for (Kmer m = 0; m < kmerSpace(k); ++m)
            total += tab.frequency(m);
        // Exactly k windows contain the sentinel.
        EXPECT_EQ(total + static_cast<u64>(k), tab.rows()) << "k=" << k;
    }
}

TEST(KmerOccTable, IncrementsAreSortedAndInRange)
{
    auto ref = randomSeq(3000, 2);
    KmerOccTable tab(ref, 3);
    for (Kmer m = 0; m < kmerSpace(3); ++m) {
        auto inc = tab.increments(m);
        for (size_t i = 0; i + 1 < inc.size(); ++i)
            ASSERT_LT(inc[i], inc[i + 1]);
        if (!inc.empty()) {
            ASSERT_LT(inc.back(), tab.rows());
        }
    }
}

TEST(KmerOccTable, OccMatchesNaiveWindowCounting)
{
    auto ref = randomSeq(500, 3);
    auto sa = buildSuffixArray(ref);
    for (int k : {1, 2, 4}) {
        KmerOccTable tab(ref, sa, k);
        Rng rng(4);
        for (int t = 0; t < 50; ++t) {
            std::vector<Base> q(static_cast<size_t>(k));
            for (auto &b : q)
                b = static_cast<Base>(rng.below(4));
            const Kmer code = packKmer(q.data(), k);
            const u64 row = rng.below(tab.rows() + 1);
            u64 expect = 0;
            for (u64 r = 0; r < row; ++r) {
                auto w = naiveWindow(ref, sa, r, k);
                bool eq = true;
                for (int j = 0; j < k; ++j)
                    eq &= w[static_cast<size_t>(j)] == q[static_cast<size_t>(j)] + 1;
                expect += eq;
            }
            const IndexLookup lk = tab.occ(code, row);
            EXPECT_EQ(lk.rank, expect) << "k=" << k << " t=" << t;
            EXPECT_EQ(lk.probes, probeCount(tab.frequency(code)));
            EXPECT_FALSE(lk.used_model);
        }
    }
}

TEST(KmerOccTable, CountBeforeMatchesNaive)
{
    auto ref = randomSeq(400, 5);
    auto sa = buildSuffixArray(ref);
    for (int k : {1, 2, 3}) {
        KmerOccTable tab(ref, sa, k);
        Rng rng(6);
        for (int t = 0; t < 40; ++t) {
            std::vector<Base> q(static_cast<size_t>(k));
            for (auto &b : q)
                b = static_cast<Base>(rng.below(4));
            const Kmer code = packKmer(q.data(), k);
            // Count rows whose window (anywhere) sorts below q: use the
            // preceding-window multiset, which equals the first-k
            // multiset over all rotations.
            u64 expect = 0;
            for (u64 r = 0; r < tab.rows(); ++r) {
                auto w = naiveWindow(ref, sa, r, k);
                bool less = false;
                for (int j = 0; j < k; ++j) {
                    const u8 qs = static_cast<u8>(q[static_cast<size_t>(j)] + 1);
                    if (w[static_cast<size_t>(j)] != qs) {
                        less = w[static_cast<size_t>(j)] < qs;
                        break;
                    }
                }
                expect += less;
            }
            EXPECT_EQ(tab.countBefore(code), expect)
                << "k=" << k << " t=" << t;
        }
    }
}

TEST(KmerOccTable, BaseOfIsPrefixSumOfFrequencies)
{
    auto ref = randomSeq(1000, 7);
    KmerOccTable tab(ref, 2);
    u64 acc = 0;
    for (Kmer m = 0; m < kmerSpace(2); ++m) {
        EXPECT_EQ(tab.baseOf(m), acc);
        acc += tab.frequency(m);
    }
}

TEST(KmerOccTable, DistinctKmersCounted)
{
    // A reference of all A's has exactly one distinct 2-mer: AA.
    std::vector<Base> ref(64, 0);
    KmerOccTable tab(ref, 2);
    EXPECT_EQ(tab.distinctKmers(), 1u);
    EXPECT_GT(tab.frequency(0), 0u);
}

/**
 * The chunked pool-parallel construction must produce a table
 * bit-identical to the serial build at any width. (Named so the TSan
 * CI job's -R filter picks these suites up.)
 */
class KmerOccParallelBuildTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(KmerOccParallelBuildTest, MatchesSerialBuild)
{
    const unsigned threads = GetParam();
    auto ref = randomSeq(30000, 77);
    auto sa = buildSuffixArray(ref);
    for (int k : {2, 6}) {
        const KmerOccTable serial(ref, sa, k, 1);
        const KmerOccTable parallel(ref, sa, k, threads);
        EXPECT_TRUE(std::ranges::equal(parallel.baseArray(),
                                       serial.baseArray()))
            << "k=" << k << " threads=" << threads;
        EXPECT_TRUE(std::ranges::equal(parallel.allIncrements(),
                                       serial.allIncrements()))
            << "k=" << k << " threads=" << threads;
        EXPECT_EQ(parallel.distinctKmers(), serial.distinctKmers());
        Rng rng(78);
        for (int t = 0; t < 200; ++t) {
            std::vector<Base> q(static_cast<size_t>(k));
            for (auto &b : q)
                b = static_cast<Base>(rng.below(4));
            const Kmer code = packKmer(q.data(), k);
            const u64 row = rng.below(serial.rows() + 1);
            ASSERT_EQ(parallel.occ(code, row).rank,
                      serial.occ(code, row).rank);
            ASSERT_EQ(parallel.countBefore(code),
                      serial.countBefore(code));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, KmerOccParallelBuildTest,
                         ::testing::Values(2u, 3u, 8u));

TEST(KmerOccParallelBuild, AutoPolicyMatchesSerialAboveThreshold)
{
    // 70000 rows crosses the automatic-parallelism threshold; the
    // default-built table must still equal the forced-serial one.
    auto ref = randomSeq(70000, 79);
    auto sa = buildSuffixArray(ref);
    const KmerOccTable serial(ref, sa, 5, 1);
    const KmerOccTable automatic(ref, sa, 5);
    EXPECT_TRUE(std::ranges::equal(automatic.baseArray(),
                                   serial.baseArray()));
    EXPECT_TRUE(std::ranges::equal(automatic.allIncrements(),
                                   serial.allIncrements()));
}

/** An Exact-mode EXMA table over @p ref: the k-step FM-Index. */
ExmaTable
kStepIndex(const std::vector<Base> &ref, int k)
{
    ExmaTable::Config cfg;
    cfg.k = k;
    return ExmaTable(ref, cfg);
}

class KStepEquivalenceTest : public ::testing::TestWithParam<int>
{
};

TEST_P(KStepEquivalenceTest, SearchEqualsOneStepFmIndex)
{
    const int k = GetParam();
    auto ref = randomSeq(4000, 100 + static_cast<u64>(k));
    FmIndex fm(ref);
    const ExmaTable kfm = kStepIndex(ref, k);

    Rng rng(200 + static_cast<u64>(k));
    for (int t = 0; t < 120; ++t) {
        // Mix of present substrings and random queries, lengths that
        // exercise remainders of every residue class mod k.
        const u64 len = 1 + rng.below(36);
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
        SearchStats stats;
        const Interval got = kfm.search(q, &stats);
        if (expect.empty()) {
            EXPECT_TRUE(got.empty()) << "k=" << k << " t=" << t;
        } else {
            EXPECT_EQ(got, expect) << "k=" << k << " t=" << t;
            EXPECT_EQ(stats.kstep_iterations, q.size() / static_cast<u64>(k));
            EXPECT_EQ(stats.onestep_iterations,
                      q.size() % static_cast<u64>(k));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Steps, KStepEquivalenceTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 8));

TEST(KStepFmIndex, StepKmerWithKOneEqualsExtend)
{
    auto ref = randomSeq(800, 9);
    FmIndex fm(ref);
    const ExmaTable kfm = kStepIndex(ref, 1);
    Rng rng(10);
    Interval iv = fm.fullInterval();
    for (int t = 0; t < 30; ++t) {
        Base c = static_cast<Base>(rng.below(4));
        Interval a = fm.extend(iv, c);
        Interval b = kfm.stepKmer(iv, c);
        ASSERT_EQ(a, b);
        if (a.empty())
            iv = fm.fullInterval();
        else
            iv = a;
    }
}

} // namespace
} // namespace exma
