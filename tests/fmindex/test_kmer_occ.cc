#include <gtest/gtest.h>

#include <algorithm>
#include <string>

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
    // A reference of all A's has exactly one distinct 2-mer, AA, which
    // holds every row but the k sentinel windows.
    std::vector<Base> ref(64, 0);
    KmerOccTable tab(ref, 2);
    u64 distinct = 0;
    for (Kmer m = 0; m < kmerSpace(2); ++m)
        distinct += tab.frequency(m) != 0;
    EXPECT_EQ(distinct, 1u);
    EXPECT_EQ(tab.frequency(0), tab.rows() - 2);
}

/**
 * A reference of @p len bases: random stretches around a 20000-base
 * homopolymer and a 7-base unit repeated 3000 times, whose k-mers have
 * thousands of rows each, so their increment lists cross any chunk
 * boundary of the build.
 */
std::vector<Base>
chunkCrossingRef(u64 len, u64 seed)
{
    Rng rng(seed);
    std::vector<Base> ref;
    auto random = [&](u64 n) {
        for (u64 i = 0; i < n; ++i)
            ref.push_back(static_cast<Base>(rng.below(4)));
    };
    random(len / 5);
    ref.insert(ref.end(), 20000, Base{0});
    random(len / 7);
    const std::vector<Base> unit = {1, 3, 0, 2, 2, 1, 3};
    for (int copy = 0; copy < 3000; ++copy)
        ref.insert(ref.end(), unit.begin(), unit.end());
    random(len - ref.size());
    return ref;
}

/**
 * The build at k = GetParam() against naiveWindow, which shares no code
 * with it, over references of at least 2^16 rows, so the build takes
 * at least two chunks on any host (the global pool has a worker per
 * hardware thread plus the caller). The two lengths put the chunk
 * boundaries in different places. The file's tests carry the
 * concurrency label, so the TSan job (ctest -L concurrency) runs them.
 */
class KmerOccParallelBuildTest : public ::testing::TestWithParam<int>
{
};

TEST_P(KmerOccParallelBuildTest, MatchesNaiveWindows)
{
    const int k = GetParam();
    for (const u64 len : {u64{70001}, u64{99991}}) {
        const auto ref = chunkCrossingRef(len, len);
        ASSERT_EQ(ref.size(), len);
        const auto sa = buildSuffixArray(ref);
        const KmerOccTable tab(ref, sa, k);

        // Expected increments per pure k-mer, and every window (the k
        // sentinel ones too) as a base-5 number, $ = 0 smallest.
        std::vector<std::vector<u32>> rows(kmerSpace(k));
        std::vector<u64> windows;
        for (u64 r = 0; r < sa.size(); ++r) {
            const std::vector<u8> w = naiveWindow(ref, sa, r, k);
            u64 code5 = 0;
            for (const u8 sym : w)
                code5 = code5 * 5 + sym;
            windows.push_back(code5);
            if (std::ranges::find(w, u8{0}) != w.end())
                continue;
            std::vector<Base> bases(w.size());
            for (size_t j = 0; j < w.size(); ++j)
                bases[j] = static_cast<Base>(w[j] - 1);
            rows[packKmer(bases.data(), k)].push_back(static_cast<u32>(r));
        }
        std::ranges::sort(windows);

        for (Kmer m = 0; m < kmerSpace(k); ++m) {
            const std::string what =
                "len=" + std::to_string(len) + " k=" + std::to_string(k) +
                " kmer=" + std::to_string(m);
            ASSERT_EQ(tab.frequency(m), rows[m].size()) << what;
            ASSERT_TRUE(std::ranges::equal(tab.increments(m), rows[m]))
                << what;
            std::vector<Base> bases(static_cast<size_t>(k));
            unpackKmer(m, k, bases.data());
            u64 code5 = 0;
            for (const Base b : bases)
                code5 = code5 * 5 + b + 1;
            const auto below = std::ranges::lower_bound(windows, code5);
            ASSERT_EQ(tab.countBefore(m),
                      static_cast<u64>(below - windows.begin()))
                << what;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Ks, KmerOccParallelBuildTest,
                         ::testing::Values(2, 5, 8));

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
