#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hh"
#include "core/exma_table.hh"
#include "genome/reference.hh"

namespace exma {
namespace {

const std::vector<Base> &
testRef()
{
    static const std::vector<Base> ref = [] {
        ReferenceSpec spec;
        spec.length = 1 << 16;
        spec.repeat_fraction = 0.5;
        spec.seed = 55;
        return generateReference(spec);
    }();
    return ref;
}

ExmaTable::Config
cfgFor(OccIndexMode mode, int k = 4)
{
    ExmaTable::Config cfg;
    cfg.k = k;
    cfg.mode = mode;
    cfg.mtl.epochs = 15;
    cfg.mtl.samples_per_class = 1024;
    cfg.naive.epochs = 8;
    return cfg;
}

TEST(ExmaTable, PaperFig8Semantics)
{
    // Fig. 8 invariants: base pointers are prefix sums; f_i counts; the
    // MAX sentinel is |G|+1 (== rows()).
    ExmaTable tab(testRef(), cfgFor(OccIndexMode::Exact));
    EXPECT_EQ(tab.maxSentinel(), tab.rows());
    u64 acc = 0;
    for (Kmer m = 0; m < kmerSpace(tab.k()); m += 11) {
        EXPECT_EQ(tab.baseOf(m), acc == 0 ? tab.baseOf(m) : tab.baseOf(m));
        acc = tab.baseOf(m) + tab.frequency(m);
    }
}

TEST(ExmaTable, OccExampleLikePaper)
{
    // Fig. 8 walk-through: Occ(kmer, pos) = increments below pos.
    ExmaTable tab(testRef(), cfgFor(OccIndexMode::Exact));
    Rng rng(1);
    for (int t = 0; t < 100; ++t) {
        Kmer m = rng.below(kmerSpace(tab.k()));
        u64 pos = rng.below(tab.rows() + 1);
        auto inc = tab.occTable().increments(m);
        u64 expect = 0;
        for (u32 r : inc)
            expect += (r < pos);
        EXPECT_EQ(tab.occ(m, pos).rank, expect);
    }
}

class ExmaModeTest : public ::testing::TestWithParam<OccIndexMode>
{
};

TEST_P(ExmaModeTest, SearchEqualsFmIndexAcrossModes)
{
    ExmaTable tab(testRef(), cfgFor(GetParam()));
    const FmIndex &fm = tab.fmIndex();
    Rng rng(2);
    const auto &ref = testRef();
    for (int t = 0; t < 80; ++t) {
        const u64 len = 1 + rng.below(40);
        std::vector<Base> q;
        if (t % 2 == 0) {
            const u64 pos = rng.below(ref.size() - len);
            q.assign(ref.begin() + static_cast<std::ptrdiff_t>(pos),
                     ref.begin() + static_cast<std::ptrdiff_t>(pos + len));
        } else {
            q.resize(len);
            for (auto &b : q)
                b = static_cast<Base>(rng.below(4));
        }
        const Interval expect = fm.search(q);
        const Interval got = tab.search(q);
        if (expect.empty())
            EXPECT_TRUE(got.empty()) << "t=" << t;
        else
            EXPECT_EQ(got, expect) << "t=" << t;
    }
}

TEST_P(ExmaModeTest, TraceSearchRecordsTheSearchsKSteps)
{
    // traceSearch walks its own k-step loop for the accelerator model:
    // it must record exactly the k-steps search() makes, with the same
    // Occ lookups, for hits and misses at lengths that are and are not
    // multiples of k.
    ExmaTable tab(testRef(), cfgFor(GetParam()));
    const u64 k = static_cast<u64>(tab.k());
    const auto &ref = testRef();
    Rng rng(6);
    u64 traced = 0, exact_ends = 0, modelled = 0;
    for (int t = 0; t < 120; ++t) {
        const u64 len = t % 3 == 0 ? k * (1 + rng.below(10))
                                   : 1 + rng.below(40);
        std::vector<Base> q(len);
        if (t % 4 != 3) {
            const u64 pos = rng.below(ref.size() - len);
            std::copy_n(ref.begin() + static_cast<std::ptrdiff_t>(pos), len,
                        q.begin());
        } else {
            for (auto &b : q)
                b = static_cast<Base>(rng.below(4));
        }
        SearchStats stats;
        const Interval iv = tab.search(q, &stats);
        const auto trace = tab.traceSearch(q);
        EXPECT_EQ(trace.size(), stats.kstep_iterations) << "t=" << t;
        u64 probes = 0, error = 0, lookups = 0;
        for (const ExmaTable::IterTrace &it : trace) {
            probes += it.low.probes + it.high.probes;
            error += it.low.error + it.high.error;
            lookups += u64{it.low.used_model} + u64{it.high.used_model};
        }
        EXPECT_EQ(probes, stats.total_probes) << "t=" << t;
        EXPECT_EQ(error, stats.total_error) << "t=" << t;
        EXPECT_EQ(lookups, stats.model_lookups) << "t=" << t;
        traced += trace.size();
        modelled += lookups;
        if (len % k == 0 && !trace.empty()) {
            // No 1-step follows: the last k-step's interval is the
            // answer, including a miss's empty one.
            const ExmaTable::IterTrace &last = trace.back();
            const u64 c = tab.occTable().countBefore(last.kmer);
            EXPECT_EQ((Interval{c + last.low.rank, c + last.high.rank}), iv)
                << "t=" << t;
            ++exact_ends;
        }
    }
    EXPECT_GT(traced, 0u);
    EXPECT_GT(exact_ends, 10u);
    if (GetParam() != OccIndexMode::Exact) {
        EXPECT_GT(modelled, 0u) << "no lookup reached a model";
    }
}

INSTANTIATE_TEST_SUITE_P(Modes, ExmaModeTest,
                         ::testing::Values(OccIndexMode::Exact,
                                           OccIndexMode::NaiveLearned,
                                           OccIndexMode::Mtl));

TEST(ExmaTable, StatsCountIterations)
{
    ExmaTable tab(testRef(), cfgFor(OccIndexMode::Exact, 6));
    SearchStats stats;
    std::vector<Base> query(testRef().begin(), testRef().begin() + 20);
    tab.search(query, &stats);
    EXPECT_EQ(stats.kstep_iterations, 20u / 6u);
    EXPECT_EQ(stats.onestep_iterations, 20u % 6u);
}

TEST(ExmaTable, AccuracyNeverAffectsResults)
{
    // §IV.B: "the accuracy of a MTL-based index decides search
    // throughput ... but has no impact on the quality of final DNA
    // mapping". Intervals from all modes are identical even when the
    // model mispredicts.
    ExmaTable exact(testRef(), cfgFor(OccIndexMode::Exact));
    ExmaTable mtl(testRef(), cfgFor(OccIndexMode::Mtl));
    Rng rng(4);
    const auto &ref = testRef();
    for (int t = 0; t < 40; ++t) {
        const u64 len = 6 + rng.below(30);
        const u64 pos = rng.below(ref.size() - len);
        std::vector<Base> q(ref.begin() + static_cast<std::ptrdiff_t>(pos),
                            ref.begin() +
                                static_cast<std::ptrdiff_t>(pos + len));
        EXPECT_EQ(exact.search(q), mtl.search(q));
    }
}

TEST(ExmaTable, SizeReportComponentsPositive)
{
    ExmaTable tab(testRef(), cfgFor(OccIndexMode::Mtl));
    auto r = tab.sizeReport();
    EXPECT_GT(r.increments_raw, 0u);
    EXPECT_GT(r.bases_raw, 0u);
    EXPECT_GT(r.bwt_bytes, 0u);
    EXPECT_GT(r.index_bytes, 0u);
    EXPECT_LT(r.increments_chain, r.increments_raw);
    EXPECT_LE(r.totalChain(), r.totalRaw());
}

TEST(ExmaTable, ChainCompressesIncrementsWell)
{
    // Fig. 23: CHAIN reaches ~25% on EXMA data. Increment lists of a
    // repetitive genome compress strongly; assert < 60% here (the exact
    // ratio depends on k-mer density at this scale).
    ExmaTable tab(testRef(), cfgFor(OccIndexMode::Exact));
    auto r = tab.sizeReport();
    EXPECT_LT(static_cast<double>(r.increments_chain) /
                  static_cast<double>(r.increments_raw),
              0.6);
}

TEST(ExmaTable, IndexParamAccounting)
{
    ExmaTable exact(testRef(), cfgFor(OccIndexMode::Exact));
    ExmaTable mtl(testRef(), cfgFor(OccIndexMode::Mtl));
    ExmaTable naive(testRef(), cfgFor(OccIndexMode::NaiveLearned));
    EXPECT_EQ(exact.indexParamCount(), 0u);
    EXPECT_GT(mtl.indexParamCount(), 0u);
    EXPECT_GT(naive.indexParamCount(), 0u);
}

TEST(ExmaTable, DifferentStepsAgree)
{
    for (int k : {4, 5, 8}) {
        ExmaTable tab(testRef(), cfgFor(OccIndexMode::Exact, k));
        const auto &ref = testRef();
        std::vector<Base> q(ref.begin() + 100, ref.begin() + 131);
        EXPECT_EQ(tab.search(q).count(), tab.fmIndex().search(q).count())
            << "k=" << k;
    }
}

TEST(ExmaTable, SliceBuildReportsGlobalPositions)
{
    // ref = AAAA CCCC TTTT GGGG; the slice [8, 16) is "TTTTGGGG". Its
    // table searches the slice alone and reports global positions.
    const std::vector<Base> ref = {0, 0, 0, 0, 1, 1, 1, 1,
                                   3, 3, 3, 3, 2, 2, 2, 2};
    const TextSegment slice{8, 8};
    const ExmaTable tab(ref, slice, cfgFor(OccIndexMode::Exact));
    ASSERT_EQ(tab.slice(), slice);
    EXPECT_EQ(tab.rows(), slice.length + 1);

    const std::vector<Base> tg = {3, 2}; // "TG" at 11
    EXPECT_EQ(tab.locateAllGlobal(tab.search(tg), tg.size()),
              (std::vector<u64>{11}));
    const std::vector<Base> gg = {2, 2}; // "GG" at 12, 13, 14
    EXPECT_EQ(tab.locateAllGlobal(tab.search(gg), gg.size()),
              (std::vector<u64>{12, 13, 14}));
    // Text outside the slice is not found.
    const std::vector<Base> aa = {0, 0};
    EXPECT_TRUE(tab.locateAllGlobal(tab.search(aa), aa.size()).empty());
}

TEST(ExmaTable, ContiguousTableLocateAllGlobalIsSortedLocate)
{
    ExmaTable tab(testRef(), cfgFor(OccIndexMode::Exact));
    const auto &ref = testRef();
    // A whole-reference build is the slice [0, n).
    EXPECT_EQ(tab.slice(), (TextSegment{0, ref.size()}));
    const std::vector<Base> q(ref.begin() + 500, ref.begin() + 512);
    const Interval iv = tab.search(q);
    auto expect = tab.locateAll(iv);
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(tab.locateAllGlobal(iv, q.size()), expect);
}

} // namespace
} // namespace exma
