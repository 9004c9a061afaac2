#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hh"
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

/** Ground truth: one monolithic table's located, sorted hit set. */
std::vector<u64>
singleTableHits(const ExmaTable &table, const std::vector<Base> &query)
{
    auto hits = table.locateAll(table.search(query));
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

/**
 * Query mix for the differential tests: reference substrings (hits),
 * random probes (mostly misses), and — the routing-specific edges —
 * queries shorter than the routing prefix (whose padded code ranges
 * can straddle partition boundaries) plus queries ending at the last
 * base of the reference (A-padded ownership).
 */
std::vector<std::vector<Base>>
queryMix(const std::vector<Base> &ref, int prefix_len, u64 seed)
{
    Rng rng(seed);
    std::vector<std::vector<Base>> qs;
    for (u64 i = 0; i < 60; ++i) {
        u64 len;
        if (i % 4 == 3) // shorter than the routing prefix
            len = 1 + rng.below(std::max<u64>(
                          1, static_cast<u64>(prefix_len) - 1));
        else
            len = static_cast<u64>(prefix_len) +
                  rng.below(kMaxQueryLen - static_cast<u64>(prefix_len));
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
    // Probes ending exactly at the reference end (padded-code owners).
    for (u64 len = 1; len <= 4; ++len)
        qs.emplace_back(ref.end() - static_cast<std::ptrdiff_t>(len),
                        ref.end());
    return qs;
}

TEST(ShardRouter, RoutedHitSetMatchesMonolithOnAllDatasets)
{
    for (const std::string &name : datasetNames()) {
        const Dataset ds = makeDataset(name, 0.001);
        const auto cfg = tableCfg(ds.exma_k);
        const ExmaTable single(ds.ref, cfg);

        for (unsigned n_shards : {2u, 4u, 8u}) {
            const auto plan = ShardPlan::kmerPrefix(ds.ref, n_shards,
                                                    kMaxQueryLen);
            RouterConfig rcfg;
            rcfg.table = cfg;
            const ShardRouter router(ds.ref, plan, rcfg);
            ASSERT_EQ(router.shardCount(), plan.size());

            const auto qs = queryMix(ds.ref, plan.prefixLen(),
                                     7 + n_shards);
            const RoutedResult r = router.search(qs);
            ASSERT_EQ(r.hits.size(), qs.size());
            EXPECT_EQ(r.routed_queries, qs.size());
            EXPECT_EQ(r.broadcast_queries, 0u);

            for (size_t i = 0; i < qs.size(); ++i) {
                const auto expect = singleTableHits(single, qs[i]);
                EXPECT_EQ(r.hits[i], expect)
                    << name << " shards=" << n_shards << " query " << i;
                EXPECT_TRUE(std::adjacent_find(r.hits[i].begin(),
                                               r.hits[i].end()) ==
                            r.hits[i].end());
            }
        }
    }
}

TEST(ShardRouter, PrefixRoutersHoldOneTableAtEveryShardCount)
{
    // Every shard of a prefix plan is a lane over one whole-reference
    // table: the router holds exactly n + 1 rows at any shard count,
    // routes every query to one shard, and its hits equal both the
    // monolith and a naive scan — short straddlers, queries ending at
    // the last base and absent patterns included.
    const Dataset ds = makeDataset("human", 0.001);
    const auto cfg = tableCfg(ds.exma_k);
    const ExmaTable single(ds.ref, cfg);
    for (unsigned n_shards : {1u, 2u, 4u, 8u}) {
        const auto plan =
            ShardPlan::kmerPrefix(ds.ref, n_shards, kMaxQueryLen, 4);
        RouterConfig rcfg;
        rcfg.table = cfg;
        const ShardRouter router(ds.ref, plan, rcfg);
        EXPECT_EQ(router.totalRows(), ds.ref.size() + 1)
            << "shards=" << n_shards;
        EXPECT_EQ(router.totalLocalBases(), ds.ref.size());
        for (size_t s = 0; s < plan.size(); ++s) {
            EXPECT_EQ(router.shardTable(s), router.shardTable(0));
            EXPECT_TRUE(router.replicaSet(s).hasTable());
        }

        auto qs = queryMix(ds.ref, plan.prefixLen(), 40 + n_shards);
        qs.push_back(std::vector<Base>(kMaxQueryLen, 2)); // absent
        qs.emplace_back(ds.ref.end() - 9, ds.ref.end());
        const RoutedResult r = router.search(qs);
        EXPECT_EQ(r.routed_queries, qs.size());
        EXPECT_EQ(r.broadcast_queries, 0u);
        for (size_t i = 0; i < qs.size(); ++i) {
            EXPECT_EQ(r.hits[i], singleTableHits(single, qs[i]))
                << "shards=" << n_shards << " query " << i;
            EXPECT_EQ(r.hits[i], naiveHits(ds.ref, qs[i]))
                << "shards=" << n_shards << " query " << i;
        }
        EXPECT_TRUE(r.hits[qs.size() - 2].empty());
        EXPECT_FALSE(r.hits.back().empty());
    }
}

TEST(ShardRouter, ShortQueryStraddlingPartitionBoundaryRoutesToOneOwner)
{
    const Dataset ds = makeDataset("human", 0.001);
    const auto cfg = tableCfg(ds.exma_k);
    const ExmaTable single(ds.ref, cfg);
    const auto plan = ShardPlan::kmerPrefix(ds.ref, 4, kMaxQueryLen, 4);
    RouterConfig rcfg;
    rcfg.table = cfg;
    const ShardRouter router(ds.ref, plan, rcfg);
    const int p = plan.prefixLen();

    // Hunt for a query shorter than p whose padded code range straddles
    // an internal partition boundary. Balanced cuts over real k-mer
    // histograms land on unaligned codes, so one exists for some
    // length unless every cut is 4^p-aligned at every level.
    std::vector<Base> straddler;
    for (size_t s = 1; s < plan.size() && straddler.empty(); ++s) {
        const Kmer boundary = plan.prefixRanges()[s].lo;
        for (int len = p - 1; len >= 1; --len) {
            const int pad = 2 * (p - len);
            if (boundary % (Kmer{1} << pad) == 0)
                continue; // this truncation aligns with the boundary
            straddler.resize(static_cast<size_t>(len));
            unpackKmer(boundary >> pad, len, straddler.data());
            break;
        }
    }
    ASSERT_FALSE(straddler.empty())
        << "every cut is aligned at every truncation level";
    const PrefixRange r =
        plan.queryPrefixRange(straddler.data(), straddler.size());
    const auto owners = plan.ownersOfRange(r.lo, r.hi);
    ASSERT_LT(owners.first, owners.second) << "range does not straddle";

    // Every owner holds the whole text, so the first one serves it
    // alone: only its shard call searched anything.
    const RoutedResult res = router.search({straddler});
    EXPECT_EQ(res.broadcast_queries, 0u);
    EXPECT_EQ(res.routed_queries, 1u);
    for (size_t s = 0; s < plan.size(); ++s)
        EXPECT_EQ(res.per_shard[s] != SearchStats{}, s == owners.first)
            << "shard " << s;
    EXPECT_EQ(res.hits[0], singleTableHits(single, straddler));
    EXPECT_EQ(res.hits[0], naiveHits(ds.ref, straddler));
}

TEST(ShardRouter, BoundaryPrefixQueryRoutesToOwner)
{
    // A full-length query whose prefix code is exactly a partition
    // boundary (a range's lo) routes to that one shard.
    const Dataset ds = makeDataset("picea", 0.001);
    const auto cfg = tableCfg(ds.exma_k);
    const ExmaTable single(ds.ref, cfg);
    const auto plan = ShardPlan::kmerPrefix(ds.ref, 4, kMaxQueryLen, 4);
    RouterConfig rcfg;
    rcfg.table = cfg;
    const ShardRouter router(ds.ref, plan, rcfg);
    const int p = plan.prefixLen();

    for (size_t s = 1; s < plan.size(); ++s) {
        if (plan.prefixRanges()[s].empty())
            continue;
        std::vector<Base> q(static_cast<size_t>(p) + 4);
        unpackKmer(plan.prefixRanges()[s].lo, p, q.data());
        Rng rng(s);
        for (size_t i = static_cast<size_t>(p); i < q.size(); ++i)
            q[i] = static_cast<Base>(rng.below(4));
        EXPECT_EQ(plan.ownerOf(plan.prefixRanges()[s].lo), s);
        const RoutedResult res = router.search({q});
        EXPECT_EQ(res.routed_queries, 1u);
        EXPECT_EQ(res.broadcast_queries, 0u);
        EXPECT_EQ(res.hits[0], singleTableHits(single, q));
    }
}

TEST(ShardRouter, EmptyPrefixRangesServeHitless)
{
    // An all-A reference puts every position in code 0's range; the
    // remaining ranges own nothing, and queries whose prefixes fall
    // there must answer with no hits — matching the monolith, which
    // cannot find those prefixes either. Every shard still serves the
    // one shared table.
    const std::vector<Base> ref(256, 0);
    const auto plan = ShardPlan::kmerPrefix(ref, 4, 8, 2);
    RouterConfig rcfg;
    rcfg.table = tableCfg(3);
    const ShardRouter router(ref, plan, rcfg);
    const ExmaTable single(ref, tableCfg(3));

    size_t empty_ranges = 0;
    for (const PrefixRange &r : plan.prefixRanges())
        empty_ranges += r.empty();
    EXPECT_GE(empty_ranges, 2u);
    EXPECT_EQ(router.totalRows(), ref.size() + 1);

    const std::vector<std::vector<Base>> qs = {
        {0, 0, 0, 0},    // AAAA -> the one populated range
        {1, 2},          // CG   -> an unpopulated range
        {3},             // T    -> short query, unpopulated range
        {0, 0, 1},       // AAC  -> miss inside the populated range
    };
    const RoutedResult r = router.search(qs);
    for (size_t i = 0; i < qs.size(); ++i)
        EXPECT_EQ(r.hits[i], singleTableHits(single, qs[i]))
            << "query " << i;
    EXPECT_EQ(r.hits[0].size(), 256u - 3u);
    EXPECT_TRUE(r.hits[1].empty());
    EXPECT_TRUE(r.hits[2].empty());
}

TEST(ShardRouter, SingleShardDegeneratePlanEqualsMonolith)
{
    const Dataset ds = makeDataset("human", 0.001);
    const auto cfg = tableCfg(ds.exma_k);
    const ExmaTable single(ds.ref, cfg);
    const auto plan = ShardPlan::kmerPrefix(ds.ref, 1, kMaxQueryLen);
    ASSERT_EQ(plan.size(), 1u);
    // One shard owns every code; its slice is the whole reference, so
    // the table is the monolith.
    EXPECT_EQ(plan.sliceOf(0), (TextSegment{0, ds.ref.size()}));

    RouterConfig rcfg;
    rcfg.table = cfg;
    const ShardRouter router(ds.ref, plan, rcfg);
    EXPECT_EQ(router.totalLocalBases(), ds.ref.size());

    const auto qs = queryMix(ds.ref, plan.prefixLen(), 13);
    const RoutedResult r = router.search(qs);
    EXPECT_EQ(r.routed_queries, qs.size());
    EXPECT_EQ(r.broadcast_queries, 0u);
    SearchStats expect;
    for (size_t i = 0; i < qs.size(); ++i) {
        SearchStats qstats;
        auto hits = single.locateAll(single.search(qs[i], &qstats));
        expect += qstats;
        std::sort(hits.begin(), hits.end());
        EXPECT_EQ(r.hits[i], hits) << "query " << i;
    }
    EXPECT_EQ(r.stats, expect);
}

TEST(ShardRouter, TinyShardsFallBackToScanWorkers)
{
    // A reference shorter than min_table_bases is served by scanning
    // instead of an ExmaTable: every prefix shard shares the one scan
    // text, and the hits must stay identical to the monolith. A tiny
    // fixed-width plan gets one scan text per slice.
    Rng rng(99);
    std::vector<Base> ref(400);
    for (auto &b : ref)
        b = static_cast<Base>(rng.below(4));
    const u64 max_q = 4;
    RouterConfig rcfg;
    rcfg.table = tableCfg(2);
    rcfg.min_table_bases = 512;
    const ExmaTable single(ref, tableCfg(2));

    std::vector<std::vector<Base>> qs;
    for (u64 i = 0; i + max_q <= ref.size(); i += 3)
        qs.emplace_back(ref.begin() + static_cast<std::ptrdiff_t>(i),
                        ref.begin() + static_cast<std::ptrdiff_t>(i + max_q));
    for (u64 len = 1; len <= 3; ++len)
        qs.emplace_back(ref.begin(),
                        ref.begin() + static_cast<std::ptrdiff_t>(len));

    for (const ShardPlan &plan :
         {ShardPlan::kmerPrefix(ref, 32, max_q, 4),
          ShardPlan::fixedWidth(ref.size(), 4, max_q)}) {
        const ShardRouter router(ref, plan, rcfg);
        EXPECT_EQ(router.totalRows(), 0u);
        for (size_t s = 0; s < router.shardCount(); ++s) {
            EXPECT_FALSE(router.replicaSet(s).hasTable()) << "shard " << s;
            EXPECT_EQ(&router.shardScanRef(s),
                      &router.shardScanRef(plan.textOf(s)));
        }
        const RoutedResult r = router.search(qs);
        for (size_t i = 0; i < qs.size(); ++i)
            EXPECT_EQ(r.hits[i], singleTableHits(single, qs[i]))
                << "query " << i;
    }
}

TEST(ShardRouter, TextPlanServesBroadcastThroughWorkers)
{
    // Text-partitioned plans have no routing prefix; the router still
    // serves them (broadcast-only) through the same worker machinery.
    const Dataset ds = makeDataset("human", 0.001);
    const auto cfg = tableCfg(ds.exma_k);
    const ExmaTable single(ds.ref, cfg);
    const auto plan =
        ShardPlan::fixedWidth(ds.ref.size(), 4, kMaxQueryLen);
    RouterConfig rcfg;
    rcfg.table = cfg;
    const ShardRouter router(ds.ref, plan, rcfg);

    const auto qs = queryMix(ds.ref, 4, 17);
    const RoutedResult r = router.search(qs);
    EXPECT_EQ(r.broadcast_queries, qs.size());
    EXPECT_EQ(r.routed_queries, 0u);
    for (size_t i = 0; i < qs.size(); ++i)
        EXPECT_EQ(r.hits[i], singleTableHits(single, qs[i]))
            << "query " << i;
}

TEST(ShardRouter, LocateLimitAppliesGloballyAfterMerge)
{
    const Dataset ds = makeDataset("human", 0.001);
    const auto cfg = tableCfg(ds.exma_k);
    const ExmaTable single(ds.ref, cfg);
    const auto plan = ShardPlan::kmerPrefix(ds.ref, 8, kMaxQueryLen);
    RouterConfig rcfg;
    rcfg.table = cfg;
    const ShardRouter router(ds.ref, plan, rcfg);

    std::vector<std::vector<Base>> qs;
    Rng rng(3);
    for (int i = 0; i < 40; ++i) {
        const u64 pos = rng.below(ds.ref.size() - 6);
        qs.emplace_back(ds.ref.begin() + static_cast<std::ptrdiff_t>(pos),
                        ds.ref.begin() +
                            static_cast<std::ptrdiff_t>(pos + 6));
    }
    const RoutedResult r = router.search(qs, 3);
    bool saw_capped = false;
    for (size_t i = 0; i < qs.size(); ++i) {
        const auto full = singleTableHits(single, qs[i]);
        const size_t expect = std::min<size_t>(full.size(), 3);
        ASSERT_EQ(r.hits[i].size(), expect) << "query " << i;
        EXPECT_TRUE(std::equal(r.hits[i].begin(), r.hits[i].end(),
                               full.begin()))
            << "query " << i;
        saw_capped |= full.size() > 3;
    }
    EXPECT_TRUE(saw_capped) << "fixture never exceeded the cap";
}

TEST(ShardRouter, WorkersDrainInboxAcrossRepeatedBatches)
{
    const Dataset ds = makeDataset("human", 0.001);
    const auto plan = ShardPlan::kmerPrefix(ds.ref, 4, kMaxQueryLen);
    RouterConfig rcfg;
    rcfg.table = tableCfg(ds.exma_k);
    const ShardRouter router(ds.ref, plan, rcfg);

    const auto qs = queryMix(ds.ref, plan.prefixLen(), 5);
    const RoutedResult first = router.search(qs);
    for (int rep = 0; rep < 3; ++rep) {
        const RoutedResult again = router.search(qs);
        EXPECT_EQ(again.hits, first.hits) << "rep " << rep;
        EXPECT_EQ(again.stats, first.stats) << "rep " << rep;
    }
    u64 processed = 0;
    for (size_t s = 0; s < router.shardCount(); ++s)
        processed += router.replicaSet(s).processedTotal();
    EXPECT_GT(processed, 0u);

    // Per-shard stats merge to the total.
    SearchStats merged;
    for (const SearchStats &s : first.per_shard)
        merged += s;
    EXPECT_EQ(merged, first.stats);

    // findAll agrees with the batch path.
    SearchStats lone;
    EXPECT_EQ(router.findAll(qs[0], &lone), first.hits[0]);
}

TEST(ShardRouter, EmptyBatch)
{
    const Dataset ds = makeDataset("human", 0.001);
    const auto plan = ShardPlan::kmerPrefix(ds.ref, 2, kMaxQueryLen);
    RouterConfig rcfg;
    rcfg.table = tableCfg(ds.exma_k);
    const ShardRouter router(ds.ref, plan, rcfg);
    const RoutedResult r = router.search({});
    EXPECT_TRUE(r.hits.empty());
    EXPECT_EQ(r.queries, 0u);
    EXPECT_EQ(r.stats, SearchStats{});
}

} // namespace
} // namespace exma
