#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.hh"
#include "learned/linear_model.hh"
#include "learned/mlp.hh"
#include "learned/rmi.hh"

namespace exma {
namespace {

TEST(LinearModel, FitsExactLine)
{
    std::vector<double> xs, ys;
    for (int i = 0; i < 50; ++i) {
        xs.push_back(i);
        ys.push_back(3.0 * i + 7.0);
    }
    auto m = LinearModel::fitXY(xs, ys);
    EXPECT_NEAR(m.w, 3.0, 1e-9);
    EXPECT_NEAR(m.b, 7.0, 1e-9);
}

/** Ranks y0, y0 + 1, ... for @p n sorted keys: a key segment's CDF. */
std::vector<double>
ranksFrom(double y0, size_t n)
{
    std::vector<double> ys(n);
    for (size_t i = 0; i < n; ++i)
        ys[i] = y0 + static_cast<double>(i);
    return ys;
}

TEST(LinearModel, FitRanksRecoversCdfSlope)
{
    // Keys 0, 2, 4, ... have rank i = key/2.
    std::vector<double> xs;
    for (int i = 0; i < 100; ++i)
        xs.push_back(2.0 * i);
    auto m = LinearModel::fitXY(xs, ranksFrom(0.0, xs.size()));
    EXPECT_NEAR(m.w, 0.5, 1e-9);
    EXPECT_NEAR(m.b, 0.0, 1e-9);
}

TEST(LinearModel, DegenerateConstantKeys)
{
    std::vector<double> xs(10, 5.0);
    auto m = LinearModel::fitXY(xs, ranksFrom(3.0, xs.size()));
    EXPECT_DOUBLE_EQ(m.w, 0.0);
    EXPECT_NEAR(m.predict(5.0), 7.5, 1e-9); // mean rank
}

TEST(LinearModel, SingleAndEmpty)
{
    EXPECT_DOUBLE_EQ(LinearModel::fitXY({}, {}).predict(1.0), 0.0);
    std::vector<double> one = {4.0};
    EXPECT_DOUBLE_EQ(LinearModel::fitXY(one, ranksFrom(9.0, 1)).predict(4.0),
                     9.0);
}

TEST(Mlp, ParamCountMatchesPaperShape)
{
    // 1 input, 10 hidden sigmoid: 10 w1 + 10 b1 + 10 w2 + 1 b2 = 31.
    Mlp m1(1, 10, 1);
    EXPECT_EQ(m1.paramCount(), 31u);
    // The MTL non-leaf takes two inputs (k-mer, pos): 41 parameters.
    Mlp m2(2, 10, 1);
    EXPECT_EQ(m2.paramCount(), 41u);
}

TEST(Mlp, LearnsLinearFunction)
{
    Mlp mlp(1, 10, 42);
    std::vector<Mlp::Sample> samples;
    for (int i = 0; i <= 100; ++i) {
        double x = i / 100.0;
        samples.push_back({x, 0.0, 0.8 * x + 0.1});
    }
    mlp.train(samples, 400, 0.05);
    for (double x : {0.1, 0.5, 0.9})
        EXPECT_NEAR(mlp.predict(x), 0.8 * x + 0.1, 0.05) << "x=" << x;
}

TEST(Mlp, LearnsMildlyNonlinearCdf)
{
    Mlp mlp(1, 10, 7);
    std::vector<Mlp::Sample> samples;
    for (int i = 0; i <= 200; ++i) {
        double x = i / 200.0;
        samples.push_back({x, 0.0, x * x}); // convex CDF
    }
    mlp.train(samples, 600, 0.05);
    double worst = 0.0;
    for (int i = 0; i <= 20; ++i) {
        double x = i / 20.0;
        worst = std::max(worst, std::abs(mlp.predict(x) - x * x));
    }
    EXPECT_LT(worst, 0.08);
}

TEST(Mlp, TwoInputTaskSeparation)
{
    // y depends on both inputs; a 1-input model could not fit this.
    Mlp mlp(2, 10, 9);
    std::vector<Mlp::Sample> samples;
    for (int a = 0; a <= 10; ++a)
        for (int b = 0; b <= 10; ++b)
            samples.push_back(
                {a / 10.0, b / 10.0, 0.5 * (a / 10.0) + 0.4 * (b / 10.0)});
    mlp.train(samples, 500, 0.05);
    EXPECT_NEAR(mlp.predict(1.0, 0.0), 0.5, 0.07);
    EXPECT_NEAR(mlp.predict(0.0, 1.0), 0.4, 0.07);
}

TEST(Mlp, TrainingIsDeterministic)
{
    std::vector<Mlp::Sample> samples;
    for (int i = 0; i < 64; ++i)
        samples.push_back({i / 64.0, 0.0, i / 64.0});
    Mlp a(1, 10, 3), b(1, 10, 3);
    a.train(samples, 50);
    b.train(samples, 50);
    for (double x : {0.0, 0.3, 0.9})
        EXPECT_DOUBLE_EQ(a.predict(x), b.predict(x));
}

std::vector<u32>
sortedRandomKeys(u64 n, u64 seed, u32 max_key)
{
    Rng rng(seed);
    std::vector<u32> keys(n);
    for (auto &k : keys)
        k = static_cast<u32>(rng.below(max_key));
    std::sort(keys.begin(), keys.end());
    return keys;
}

TEST(Rmi, LookupAlwaysReturnsLowerBound)
{
    auto keys = sortedRandomKeys(20000, 1, 1u << 24);
    Rmi<u32> rmi;
    Rmi<u32>::Config cfg;
    cfg.leaf_size = 256;
    rmi.build(keys, cfg);
    Rng rng(2);
    for (int t = 0; t < 500; ++t) {
        u32 q = static_cast<u32>(rng.below(1u << 24));
        auto res = rmi.lookup(q);
        auto expect = static_cast<u64>(
            std::lower_bound(keys.begin(), keys.end(), q) - keys.begin());
        ASSERT_EQ(res.rank, expect) << "q=" << q;
    }
}

TEST(Rmi, BoundaryKeys)
{
    auto keys = sortedRandomKeys(5000, 3, 1u << 20);
    Rmi<u32> rmi;
    rmi.build(keys, {});
    EXPECT_EQ(rmi.lookup(0).rank,
              static_cast<u64>(std::lower_bound(keys.begin(), keys.end(),
                                                0u) - keys.begin()));
    EXPECT_EQ(rmi.lookup(keys.back()).rank,
              static_cast<u64>(std::lower_bound(keys.begin(), keys.end(),
                                                keys.back()) -
                               keys.begin()));
    EXPECT_EQ(rmi.lookup(~u32{0}).rank, keys.size());
}

TEST(Rmi, SmallerLeavesGiveSmallerErrors)
{
    // Bursty keys (clusters) make linear leaves err; finer leaves help.
    Rng rng(5);
    std::vector<u32> keys;
    u32 v = 0;
    for (int c = 0; c < 200; ++c) {
        v += static_cast<u32>(rng.below(100000)); // big jump
        for (int i = 0; i < 100; ++i)
            keys.push_back(v += static_cast<u32>(rng.below(3)));
    }
    auto mean_error = [&](u64 leaf) {
        Rmi<u32> rmi;
        Rmi<u32>::Config cfg;
        cfg.leaf_size = leaf;
        rmi.build(keys, cfg);
        Rng qr(6);
        double sum = 0.0;
        for (int t = 0; t < 400; ++t)
            sum += static_cast<double>(
                rmi.lookup(static_cast<u32>(qr.below(v))).error);
        return sum / 400.0;
    };
    EXPECT_LT(mean_error(128), mean_error(4096));
}

TEST(Rmi, ParamCountScalesWithLeaves)
{
    auto keys = sortedRandomKeys(10000, 7, 1u << 22);
    Rmi<u32> coarse, fine;
    Rmi<u32>::Config c1, c2;
    c1.leaf_size = 4096;
    c2.leaf_size = 128;
    coarse.build(keys, c1);
    fine.build(keys, c2);
    EXPECT_GT(fine.paramCount(), coarse.paramCount());
    EXPECT_EQ(coarse.leafCount(), 3u); // ceil(10000/4096)
}

TEST(Rmi, MlpRootWorksToo)
{
    auto keys = sortedRandomKeys(8000, 9, 1u << 20);
    Rmi<u32> rmi;
    Rmi<u32>::Config cfg;
    cfg.mlp_root = true;
    cfg.epochs = 30;
    rmi.build(keys, cfg);
    Rng rng(10);
    for (int t = 0; t < 200; ++t) {
        u32 q = static_cast<u32>(rng.below(1u << 20));
        auto expect = static_cast<u64>(
            std::lower_bound(keys.begin(), keys.end(), q) - keys.begin());
        ASSERT_EQ(rmi.lookup(q).rank, expect);
    }
}

TEST(Rmi, EmptyAndSingle)
{
    Rmi<u32> rmi;
    rmi.build({}, {});
    EXPECT_EQ(rmi.lookup(5).rank, 0u);
    std::vector<u32> one = {42};
    rmi.build(one, {});
    EXPECT_EQ(rmi.lookup(10).rank, 0u);
    EXPECT_EQ(rmi.lookup(42).rank, 0u);
    EXPECT_EQ(rmi.lookup(43).rank, 1u);
}

TEST(Rmi, U64KeysExactAtHighMagnitude)
{
    // LISA composite keys reach ~2^48; ranks must stay exact.
    Rng rng(11);
    std::vector<u64> keys(5000);
    for (auto &k : keys)
        k = rng.below(u64{1} << 48);
    std::sort(keys.begin(), keys.end());
    Rmi<u64> rmi;
    rmi.build(keys, {});
    for (int t = 0; t < 300; ++t) {
        u64 q = rng.below(u64{1} << 48);
        auto expect = static_cast<u64>(
            std::lower_bound(keys.begin(), keys.end(), q) - keys.begin());
        ASSERT_EQ(rmi.lookup(q).rank, expect);
    }
}

/** gallopLowerBound from every start in [0, n + 2] equals lower_bound. */
template <typename K>
void
expectGallopIsLowerBound(const std::vector<K> &keys)
{
    std::vector<K> queries = {K{0}, std::numeric_limits<K>::max()};
    for (const K k : keys) {
        queries.push_back(k);
        if (k > 0)
            queries.push_back(k - 1);
        if (k < std::numeric_limits<K>::max())
            queries.push_back(k + 1);
    }
    const u64 n = keys.size();
    for (const K q : queries) {
        const auto expect = static_cast<u64>(
            std::lower_bound(keys.begin(), keys.end(), q) - keys.begin());
        for (u64 start = 0; start <= n + 2; ++start) {
            u64 probes = 0;
            ASSERT_EQ(gallopLowerBound<K>(keys, q, start, probes), expect)
                << "n=" << n << " q=" << q << " start=" << start;
            if (n > 0) {
                ASSERT_GE(probes, 1u)
                    << "n=" << n << " q=" << q << " start=" << start;
            }
        }
    }
}

TEST(RmiHelpers, GallopLowerBoundEqualsStdLowerBound)
{
    expectGallopIsLowerBound<u32>({});
    expectGallopIsLowerBound<u32>({7});
    // Runs of duplicates, keys below the first and above the last.
    expectGallopIsLowerBound<u32>({3, 3, 3, 5, 9, 9, 12, 12, 12, 12, 40});
    expectGallopIsLowerBound<u32>(sortedRandomKeys(300, 12, 64));
    expectGallopIsLowerBound<u64>({u64{1} << 40, u64{1} << 40,
                                   (u64{1} << 40) + 1, u64{1} << 47});
    Rng rng(13);
    std::vector<u64> wide(257);
    for (auto &k : wide)
        k = rng.below(u64{1} << 48);
    std::sort(wide.begin(), wide.end());
    expectGallopIsLowerBound<u64>(wide);
}

TEST(RmiHelpers, GallopLowerBoundAddsToProbes)
{
    const std::vector<u32> keys = {1, 2, 3, 4, 5, 6, 7, 8};
    u64 probes = 100;
    gallopLowerBound<u32>(keys, 5, 4, probes);
    EXPECT_GT(probes, 100u);
    // An exact prediction costs fewer comparisons than a distant one.
    u64 near = 0, far = 0;
    gallopLowerBound<u32>(keys, 5, 4, near);
    gallopLowerBound<u32>(keys, 5, 8, far);
    EXPECT_LT(near, far);
}

TEST(RmiHelpers, SolveLeavesFillsEmptyLeaves)
{
    // Leaf moments for [empty, A, empty, empty, B, empty].
    std::vector<LeafMoments> acc(6);
    acc[1].add(0.1, 1.0);
    acc[1].add(0.2, 2.0);
    acc[4].add(0.7, 7.0);
    acc[4].add(0.9, 8.0);
    const ClampedLeaf a = ClampedLeaf::from(acc[1]);
    const ClampedLeaf b = ClampedLeaf::from(acc[4]);
    ASSERT_NE(a.model.w, b.model.w);
    const std::vector<ClampedLeaf> leaves = solveLeaves(acc);
    ASSERT_EQ(leaves.size(), 6u);
    // An empty leaf takes the next solved one; trailing ones the last.
    const ClampedLeaf *expect[] = {&a, &a, &b, &b, &b, &b};
    for (size_t j = 0; j < leaves.size(); ++j) {
        EXPECT_EQ(leaves[j].model.w, expect[j]->model.w) << "j=" << j;
        EXPECT_EQ(leaves[j].model.b, expect[j]->model.b) << "j=" << j;
        EXPECT_EQ(leaves[j].ymin, expect[j]->ymin) << "j=" << j;
        EXPECT_EQ(leaves[j].ymax, expect[j]->ymax) << "j=" << j;
    }

    // With no key at all, every leaf stays default.
    for (const ClampedLeaf &leaf : solveLeaves(std::vector<LeafMoments>(3))) {
        EXPECT_EQ(leaf.model.w, 0.0);
        EXPECT_EQ(leaf.model.b, 0.0);
        EXPECT_EQ(leaf.ymin, 0.0);
        EXPECT_EQ(leaf.ymax, 0.0);
    }
    EXPECT_TRUE(solveLeaves({}).empty());
}

TEST(RmiHelpers, LeafOfClampsRouting)
{
    for (const u64 n : {u64{1}, u64{2}, u64{7}, u64{1000}}) {
        for (const double q : {-1e300, -1.0, -1e-12, 0.0})
            EXPECT_EQ(leafOf(q, n), 0u) << "q=" << q << " n=" << n;
        for (const double q : {1.0, 1.0 + 1e-12, 2.0, 1e300})
            EXPECT_EQ(leafOf(q, n), n - 1) << "q=" << q << " n=" << n;
        for (u64 j = 0; j < n; ++j) {
            // The middle of leaf j's quantile band routes to leaf j.
            const double q =
                (static_cast<double>(j) + 0.5) / static_cast<double>(n);
            EXPECT_EQ(leafOf(q, n), j) << "q=" << q << " n=" << n;
        }
    }
}

TEST(RmiHelpers, ClampRankKeepsPredictionsInRange)
{
    for (const u64 n : {u64{0}, u64{1}, u64{9}, u64{1} << 32}) {
        for (const double p : {-1e300, -3.5, -1e-12, 0.0})
            EXPECT_EQ(clampRank(p, n), 0u) << "p=" << p << " n=" << n;
        for (const double p : {static_cast<double>(n),
                               static_cast<double>(n) + 0.5, 1e300})
            EXPECT_EQ(clampRank(p, n), n) << "p=" << p << " n=" << n;
    }
    // Inside the range a prediction truncates toward zero.
    EXPECT_EQ(clampRank(0.999, 9), 0u);
    EXPECT_EQ(clampRank(4.7, 9), 4u);
    EXPECT_EQ(clampRank(8.99, 9), 8u);
}

} // namespace
} // namespace exma
