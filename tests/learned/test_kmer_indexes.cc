#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hh"
#include "fmindex/kmer_occ.hh"
#include "genome/reference.hh"
#include "learned/mtl_index.hh"
#include "learned/naive_kmer_index.hh"

namespace exma {
namespace {

/** A small repetitive reference shared across these tests. */
const std::vector<Base> &
testRef()
{
    static const std::vector<Base> ref = [] {
        ReferenceSpec spec;
        spec.length = 1 << 17; // 128 Kbp
        spec.repeat_fraction = 0.6;
        spec.seed = 33;
        return generateReference(spec);
    }();
    return ref;
}

const KmerOccTable &
testTable()
{
    // k = 4 over 128 Kbp: 256 k-mers averaging ~512 increments, so a
    // healthy share sits above the paper's 256-increment threshold.
    static const KmerOccTable tab(testRef(), 4);
    return tab;
}

NaiveKmerIndex::Config
fastNaiveCfg()
{
    NaiveKmerIndex::Config cfg;
    cfg.epochs = 10;
    return cfg;
}

MtlIndex::Config
fastMtlCfg()
{
    MtlIndex::Config cfg;
    cfg.epochs = 200;
    cfg.samples_per_class = 2048;
    // The 128 Kbp test genome has k-mer frequencies of only a few
    // hundred; scale the leaf granularity down with it so the
    // MTL-vs-naive granularity ratio matches the full-scale setup.
    cfg.leaf_size = 64;
    return cfg;
}

TEST(NaiveKmerIndex, RanksAreExact)
{
    const auto &tab = testTable();
    NaiveKmerIndex idx(tab, fastNaiveCfg());
    Rng rng(1);
    for (int t = 0; t < 300; ++t) {
        const Kmer m = rng.below(kmerSpace(tab.k()));
        const u64 pos = rng.below(tab.rows() + 1);
        EXPECT_EQ(idx.occ(m, pos).rank, tab.occ(m, pos).rank) << "t=" << t;
    }
}

TEST(NaiveKmerIndex, ModelsOnlyAboveThreshold)
{
    const auto &tab = testTable();
    NaiveKmerIndex idx(tab, fastNaiveCfg());
    for (Kmer m = 0; m < kmerSpace(tab.k()); m += 7) {
        if (tab.frequency(m) <= 256)
            EXPECT_FALSE(idx.hasModel(m));
        else
            EXPECT_TRUE(idx.hasModel(m));
    }
    EXPECT_GT(idx.modelCount(), 0u);
}

TEST(NaiveKmerIndex, LookupReportsModelUsage)
{
    const auto &tab = testTable();
    NaiveKmerIndex idx(tab, fastNaiveCfg());
    // Find a heavy and a light k-mer.
    Kmer heavy = 0, light = 0;
    for (Kmer m = 0; m < kmerSpace(tab.k()); ++m) {
        if (tab.frequency(m) > 256)
            heavy = m;
        else if (tab.frequency(m) > 0)
            light = m;
    }
    EXPECT_TRUE(idx.occ(heavy, tab.rows() / 2).used_model);
    EXPECT_FALSE(idx.occ(light, tab.rows() / 2).used_model);
}

TEST(MtlIndex, RanksAreExact)
{
    const auto &tab = testTable();
    MtlIndex idx(tab, fastMtlCfg());
    Rng rng(2);
    for (int t = 0; t < 300; ++t) {
        const Kmer m = rng.below(kmerSpace(tab.k()));
        const u64 pos = rng.below(tab.rows() + 1);
        EXPECT_EQ(idx.occ(m, pos).rank, tab.occ(m, pos).rank) << "t=" << t;
    }
}

TEST(MtlIndex, ClassBucketsMatchFig12Axis)
{
    EXPECT_EQ(MtlIndex::classOf(0), 0);
    EXPECT_EQ(MtlIndex::classOf(1), 1);
    EXPECT_EQ(MtlIndex::classOf(2), 2);
    EXPECT_EQ(MtlIndex::classOf(256), 2);
    EXPECT_EQ(MtlIndex::classOf(257), 3);
    EXPECT_EQ(MtlIndex::classOf(1 << 20), 8);
    EXPECT_EQ(MtlIndex::classOf((1 << 20) + 1), 9);
    EXPECT_STREQ(MtlIndex::className(7), "64K-256K");
    EXPECT_STREQ(MtlIndex::className(9), ">1M");
}

TEST(MtlIndex, MoreAccurateThanNaive)
{
    // The paper's Fig. 13: the MTL index has markedly smaller
    // prediction errors than per-k-mer learned indexes.
    const auto &tab = testTable();
    NaiveKmerIndex naive(tab, fastNaiveCfg());
    MtlIndex mtl(tab, fastMtlCfg());
    Rng rng(3);
    double naive_err = 0.0, mtl_err = 0.0;
    u64 samples = 0;
    for (Kmer m = 0; m < kmerSpace(tab.k()); ++m) {
        if (tab.frequency(m) <= 256)
            continue;
        for (int t = 0; t < 8; ++t) {
            const u64 pos = rng.below(tab.rows() + 1);
            naive_err += static_cast<double>(naive.occ(m, pos).error);
            mtl_err += static_cast<double>(mtl.occ(m, pos).error);
            ++samples;
        }
    }
    ASSERT_GT(samples, 0u);
    EXPECT_LT(mtl_err, naive_err * 0.8)
        << "naive mean " << naive_err / static_cast<double>(samples)
        << " vs mtl mean " << mtl_err / static_cast<double>(samples);
}

TEST(MtlIndex, FewerParametersThanNaive)
{
    // §IV.B: the MTL index is smaller because k-mers share the non-leaf
    // parameters.
    const auto &tab = testTable();
    NaiveKmerIndex naive(tab, fastNaiveCfg());
    MtlIndex::Config mtl_cfg = fastMtlCfg();
    MtlIndex mtl(tab, mtl_cfg);
    EXPECT_GT(naive.paramCount(), 0u);
    EXPECT_GT(mtl.paramCount(), 0u);
    EXPECT_LT(mtl.paramCount(), naive.paramCount() * 2)
        << "naive=" << naive.paramCount() << " mtl=" << mtl.paramCount();
}

TEST(MtlIndex, BinarySearchFallbackForLightKmers)
{
    const auto &tab = testTable();
    MtlIndex idx(tab, fastMtlCfg());
    for (Kmer m = 0; m < kmerSpace(tab.k()); ++m) {
        if (tab.frequency(m) > 0 && tab.frequency(m) <= 256) {
            auto lk = idx.occ(m, tab.rows() / 3);
            EXPECT_FALSE(lk.used_model);
            EXPECT_EQ(lk.rank, tab.occ(m, tab.rows() / 3).rank);
            break;
        }
    }
}

} // namespace
} // namespace exma
