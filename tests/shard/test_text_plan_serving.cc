/**
 * Text-partitioned plans (fixedWidth, perRecord) served through
 * ShardRouter: hits, merged stats and per-shard stats must equal the
 * monolithic table's, and a match that two overlapping shards both
 * find is reported once.
 *
 * The suite keeps the name of the class that served these plans before
 * ShardRouter took them over, so its test IDs stay stable.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "common/inflight.hh"
#include "common/rng.hh"
#include "genome/fasta.hh"
#include "genome/reference.hh"
#include "route/shard_router.hh"

namespace exma {
namespace {

constexpr u64 kMaxQueryLen = 24;

ExmaTable::Config
tableCfg(int k, OccIndexMode mode = OccIndexMode::Exact)
{
    ExmaTable::Config cfg;
    cfg.k = k;
    cfg.mode = mode;
    cfg.mtl.epochs = 10;
    cfg.mtl.samples_per_class = 512;
    return cfg;
}

RouterConfig
routerCfg(const ExmaTable::Config &table)
{
    RouterConfig cfg;
    cfg.table = table;
    return cfg;
}

/** Ground truth: one monolithic table's located, sorted hit set. */
std::vector<u64>
singleTableHits(const ExmaTable &table, const std::vector<Base> &query,
                SearchStats *stats = nullptr)
{
    auto hits = table.locateAll(table.search(query, stats));
    std::sort(hits.begin(), hits.end());
    return hits;
}

/** Oracle sharing no code with the FM index: every occurrence. */
std::vector<u64>
naiveHits(const std::vector<Base> &ref, const std::vector<Base> &query)
{
    std::vector<u64> out;
    for (auto it = std::search(ref.begin(), ref.end(), query.begin(),
                               query.end());
         it != ref.end();
         it = std::search(it + 1, ref.end(), query.begin(), query.end()))
        out.push_back(static_cast<u64>(it - ref.begin()));
    return out;
}

bool
strictlyIncreasing(const std::vector<u64> &hits)
{
    return std::adjacent_find(hits.begin(), hits.end(),
                              std::greater_equal<u64>()) == hits.end();
}

/**
 * Query mix for one dataset/shard-count pair: random reference
 * substrings (hits), random misses, and — the point of the exercise —
 * substrings centred on every internal shard boundary, so matches that
 * span boundaries are exercised on purpose.
 */
std::vector<std::vector<Base>>
queryMix(const std::vector<Base> &ref, const ShardPlan &plan, u64 seed)
{
    Rng rng(seed);
    std::vector<std::vector<Base>> qs;
    for (u64 i = 0; i < 40; ++i) {
        const u64 len = 6 + rng.below(kMaxQueryLen - 5);
        if (i % 5 == 4) { // pure-random, mostly a miss
            std::vector<Base> q(len);
            for (auto &b : q)
                b = static_cast<Base>(rng.below(4));
            qs.push_back(std::move(q));
        } else {
            const u64 pos = rng.below(ref.size() - len + 1);
            qs.emplace_back(ref.begin() + static_cast<std::ptrdiff_t>(pos),
                            ref.begin() +
                                static_cast<std::ptrdiff_t>(pos + len));
        }
    }
    // One straddler per internal boundary: starts kMaxQueryLen/2 bases
    // before a later shard's begin, so it crosses that boundary.
    for (size_t s = 1; s < plan.size(); ++s) {
        const u64 boundary = plan.shards()[s].begin;
        const u64 start = boundary - std::min<u64>(boundary,
                                                   kMaxQueryLen / 2);
        const u64 len = std::min<u64>(kMaxQueryLen, ref.size() - start);
        qs.emplace_back(ref.begin() + static_cast<std::ptrdiff_t>(start),
                        ref.begin() +
                            static_cast<std::ptrdiff_t>(start + len));
    }
    return qs;
}

TEST(ShardedExmaTable, HitSetMatchesSingleTableOnAllDatasets)
{
    for (const std::string &name : datasetNames()) {
        const Dataset ds = makeDataset(name, 0.001);
        const auto cfg = tableCfg(ds.exma_k);
        const ExmaTable single(ds.ref, cfg);

        for (unsigned n_shards : {1u, 2u, 8u}) {
            const auto plan = ShardPlan::fixedWidth(
                ds.ref.size(), n_shards, kMaxQueryLen);
            const ShardRouter router(ds.ref, plan, routerCfg(cfg));
            ASSERT_EQ(router.shardCount(), plan.size());

            const auto qs = queryMix(ds.ref, plan, 7 + n_shards);
            const RoutedResult r = router.search(qs);
            ASSERT_EQ(r.hits.size(), qs.size());
            // No routing prefix: every query goes to every shard.
            EXPECT_EQ(r.broadcast_queries,
                      plan.size() > 1 ? qs.size() : 0u);
            EXPECT_EQ(r.routed_queries + r.broadcast_queries, qs.size());

            for (size_t i = 0; i < qs.size(); ++i) {
                EXPECT_EQ(r.hits[i], singleTableHits(single, qs[i]))
                    << name << " shards=" << n_shards << " query " << i;
                // Dedup really happened: strictly increasing positions.
                EXPECT_TRUE(strictlyIncreasing(r.hits[i]));
            }
        }
    }
}

TEST(ShardedExmaTable, BoundarySpanningMatchFoundExactlyOnce)
{
    const Dataset ds = makeDataset("human", 0.001);
    const auto plan = ShardPlan::fixedWidth(ds.ref.size(), 8, kMaxQueryLen);
    ASSERT_GE(plan.size(), 2u);
    const ShardRouter router(ds.ref, plan, routerCfg(tableCfg(ds.exma_k)));

    for (size_t s = 1; s < plan.size(); ++s) {
        const u64 boundary = plan.shards()[s].begin;
        const u64 start = boundary - kMaxQueryLen / 2;
        const std::vector<Base> q(
            ds.ref.begin() + static_cast<std::ptrdiff_t>(start),
            ds.ref.begin() +
                static_cast<std::ptrdiff_t>(start + kMaxQueryLen));
        const auto hits = router.search({q}).hits[0];
        // The planted occurrence is reported once, despite straddling
        // the boundary (and possibly lying in two shards' overlap).
        EXPECT_EQ(std::count(hits.begin(), hits.end(), start), 1)
            << "boundary at " << boundary;
        EXPECT_FALSE(hits.empty());
        EXPECT_TRUE(strictlyIncreasing(hits));
    }
}

TEST(ShardedExmaTable, OneShardEqualsSingleTableStats)
{
    const Dataset ds = makeDataset("human", 0.001);
    const auto cfg = tableCfg(ds.exma_k);
    const ExmaTable single(ds.ref, cfg);
    const auto plan = ShardPlan::fixedWidth(ds.ref.size(), 1, kMaxQueryLen);
    ASSERT_EQ(plan.size(), 1u);
    // The one shard's slice is the whole reference, so its table is
    // the monolith.
    EXPECT_EQ(plan.sliceOf(0), (TextSegment{0, ds.ref.size()}));
    const ShardRouter router(ds.ref, plan, routerCfg(cfg));
    EXPECT_EQ(router.totalLocalBases(), ds.ref.size());

    const auto qs = queryMix(ds.ref, plan, 5);
    SearchStats expect;
    std::vector<std::vector<u64>> expect_hits;
    for (const auto &q : qs)
        expect_hits.push_back(singleTableHits(single, q, &expect));

    const RoutedResult r = router.search(qs);
    EXPECT_EQ(r.stats, expect); // one shard == the monolithic table
    for (size_t i = 0; i < qs.size(); ++i)
        EXPECT_EQ(r.hits[i], expect_hits[i]);
    EXPECT_EQ(r.queries, qs.size());
    EXPECT_EQ(r.broadcast_queries, 0u);
}

TEST(ShardedExmaTable, PerShardStatsMergeToTotal)
{
    const Dataset ds = makeDataset("picea", 0.001);
    const auto plan = ShardPlan::fixedWidth(ds.ref.size(), 4, kMaxQueryLen);
    const ShardRouter router(ds.ref, plan, routerCfg(tableCfg(ds.exma_k)));

    const auto qs = queryMix(ds.ref, plan, 11);
    const RoutedResult r = router.search(qs);
    ASSERT_EQ(r.per_shard.size(), plan.size());
    SearchStats merged;
    for (const SearchStats &s : r.per_shard)
        merged += s;
    EXPECT_EQ(merged, r.stats);
    EXPECT_GT(r.stats.kstep_iterations, 0u);

    // A lone query's search merges its per-shard stats the same way.
    const RoutedResult lone = router.search({qs[0]});
    EXPECT_GT(lone.stats.kstep_iterations, 0u);
    EXPECT_EQ(lone.hits[0], r.hits[0]);
}

TEST(ShardedExmaTable, LearnedModeMatchesExactMode)
{
    const Dataset ds = makeDataset("human", 0.001);
    const auto plan = ShardPlan::fixedWidth(ds.ref.size(), 2, kMaxQueryLen);
    const ShardRouter a(ds.ref, plan,
                        routerCfg(tableCfg(ds.exma_k, OccIndexMode::Exact)));
    const ShardRouter b(ds.ref, plan,
                        routerCfg(tableCfg(ds.exma_k, OccIndexMode::Mtl)));

    const auto qs = queryMix(ds.ref, plan, 23);
    const RoutedResult ra = a.search(qs);
    const RoutedResult rb = b.search(qs);
    for (size_t i = 0; i < qs.size(); ++i)
        EXPECT_EQ(ra.hits[i], rb.hits[i]) << "query " << i;
}

TEST(ShardedExmaTable, PerRecordPlanFindsWithinRecordMatches)
{
    // Two records, one shard each: in-record matches come back at
    // their global coordinates, the unbounded plan takes queries of
    // any length, and the concatenation seam — which the monolith
    // does report — is never a match.
    std::vector<FastaRecord> recs;
    ReferenceSpec spec;
    spec.length = 4096;
    spec.seed = 31;
    recs.push_back({"chrA", generateReference(spec)});
    spec.seed = 32;
    recs.push_back({"chrB", generateReference(spec)});
    const Dataset ds = makeDatasetFromRecords("human", recs);

    const auto plan = ShardPlan::perRecord(ds.records);
    ASSERT_EQ(plan.size(), 2u);
    EXPECT_FALSE(plan.boundsQueries());
    const ShardRouter router(ds.ref, plan, routerCfg(tableCfg(5)));

    const auto probe = [&](u64 start, u64 len) {
        return std::vector<Base>(
            ds.ref.begin() + static_cast<std::ptrdiff_t>(start),
            ds.ref.begin() + static_cast<std::ptrdiff_t>(start + len));
    };
    const u64 in_chr_b = 4096 + 1000;
    const u64 long_in_chr_a = 500;
    const u64 seam = 4096 - 10;
    const std::vector<std::vector<Base>> qs = {
        probe(in_chr_b, 20), probe(long_in_chr_a, 300), probe(seam, 20)};
    const RoutedResult r = router.search(qs);
    const auto count = [&](size_t i, u64 pos) {
        return std::count(r.hits[i].begin(), r.hits[i].end(), pos);
    };
    EXPECT_EQ(count(0, in_chr_b), 1);
    EXPECT_EQ(count(1, long_in_chr_a), 1);
    EXPECT_EQ(count(2, seam), 0);

    const auto mono = singleTableHits(ExmaTable(ds.ref, tableCfg(5)), qs[2]);
    EXPECT_EQ(std::count(mono.begin(), mono.end(), seam), 1);
}

TEST(ShardedExmaTable, LocateLimitAppliesGloballyAfterMerge)
{
    // Regression: forwarding locate_limit per shard truncated each
    // shard's hits in SA order — an arbitrary, shard-count-dependent
    // subset. The cap must instead keep the lowest global positions.
    // Each shard's table covers a slice, so this is also the check that
    // slice tables keep the lowest global hits; the oracle is a naive
    // scan of the reference, which shares no code with the index.
    const Dataset ds = makeDataset("human", 0.001);
    const auto plan = ShardPlan::fixedWidth(ds.ref.size(), 8, kMaxQueryLen);
    const ShardRouter router(ds.ref, plan, routerCfg(tableCfg(ds.exma_k)));

    // Short queries so several have more hits than any cap below: 40
    // of 6 bases, then 8 of 3 bases, whose hit lists run longer than a
    // ring of kInFlight locate walks.
    std::vector<std::vector<Base>> qs;
    Rng rng(3);
    for (int i = 0; i < 48; ++i) {
        const u64 len = i < 40 ? 6 : 3;
        const u64 pos = rng.below(ds.ref.size() - len);
        qs.emplace_back(ds.ref.begin() + static_cast<std::ptrdiff_t>(pos),
                        ds.ref.begin() +
                            static_cast<std::ptrdiff_t>(pos + len));
    }
    // Cap 0 is no cap: every hit, checked against the scan as well.
    for (const u64 cap : {u64{0}, u64{1}, u64{3}, u64{kInFlight} + 1}) {
        const RoutedResult r = router.search(qs, cap);
        bool saw_capped = cap == 0;
        for (size_t i = 0; i < qs.size(); ++i) {
            auto expect = naiveHits(ds.ref, qs[i]);
            if (cap != 0 && expect.size() > cap) {
                saw_capped = true;
                expect.resize(cap);
            }
            // The survivors are exactly the lowest positions.
            EXPECT_EQ(r.hits[i], expect) << "cap " << cap << " query " << i;
        }
        EXPECT_TRUE(saw_capped) << "fixture never exceeded cap " << cap;
    }
}

TEST(ShardedExmaTable, EmptyBatch)
{
    const Dataset ds = makeDataset("human", 0.001);
    const auto plan = ShardPlan::fixedWidth(ds.ref.size(), 2, kMaxQueryLen);
    const ShardRouter router(ds.ref, plan, routerCfg(tableCfg(ds.exma_k)));
    const RoutedResult r = router.search({});
    EXPECT_TRUE(r.hits.empty());
    EXPECT_EQ(r.queries, 0u);
    EXPECT_EQ(r.stats, SearchStats{});
    EXPECT_EQ(r.totalHits(), 0u);
}

} // namespace
} // namespace exma
