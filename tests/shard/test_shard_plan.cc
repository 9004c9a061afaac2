#include <gtest/gtest.h>

#include "common/rng.hh"
#include "shard/shard_plan.hh"

namespace exma {
namespace {

std::vector<Base>
randomRef(u64 len, u64 seed)
{
    Rng rng(seed);
    std::vector<Base> ref(len);
    for (auto &b : ref)
        b = static_cast<Base>(rng.below(4));
    return ref;
}

/** A-padded prefix code of position @p g, computed the slow way. */
Kmer
paddedCode(const std::vector<Base> &ref, u64 g, int p)
{
    Kmer c = 0;
    for (int i = 0; i < p; ++i) {
        const Base b =
            g + static_cast<u64>(i) < ref.size() ? ref[g + i] : Base{0};
        c = (c << 2) | b;
    }
    return c;
}

/** A text plan's segment map is each shard's own slice, unmoved. */
void
expectOneSliceSegments(const ShardPlan &plan)
{
    for (size_t i = 0; i < plan.size(); ++i) {
        const Shard &sh = plan.shards()[i];
        EXPECT_EQ(plan.segmentsOf(i),
                  (std::vector<TextSegment>{{sh.begin, 0, sh.length}}))
            << sh.name;
    }
}

TEST(ShardPlan, FixedWidthCoversReference)
{
    const auto plan = ShardPlan::fixedWidth(10000, 4, 101);
    ASSERT_EQ(plan.size(), 4u);
    EXPECT_EQ(plan.refLength(), 10000u);
    EXPECT_EQ(plan.overlap(), 100u);
    EXPECT_EQ(plan.maxQueryLen(), 101u);
    EXPECT_TRUE(plan.boundsQueries());

    // Strides tile [0, ref_len); each shard extends `overlap` past its
    // stride (clamped at the end).
    EXPECT_EQ(plan.shards()[0].begin, 0u);
    EXPECT_EQ(plan.shards()[0].length, 2500u + 100u);
    EXPECT_EQ(plan.shards()[1].begin, 2500u);
    EXPECT_EQ(plan.shards()[3].begin, 7500u);
    EXPECT_EQ(plan.shards()[3].end(), 10000u);

    // Union of shards covers every base exactly (no gaps).
    u64 covered_to = 0;
    for (const Shard &s : plan.shards()) {
        EXPECT_LE(s.begin, covered_to);
        covered_to = std::max(covered_to, s.end());
    }
    EXPECT_EQ(covered_to, plan.refLength());
    expectOneSliceSegments(plan);
}

TEST(ShardPlan, FixedWidthGuaranteesBoundarySpanningMatches)
{
    // Every possible match of length <= max_query_len must lie fully
    // inside at least one shard.
    const u64 len = 3137; // deliberately not a multiple of anything
    const u64 max_q = 24;
    for (unsigned n : {1u, 2u, 3u, 8u, 16u}) {
        const auto plan = ShardPlan::fixedWidth(len, n, max_q);
        for (u64 p = 0; p + max_q <= len; ++p) {
            bool contained = false;
            for (const Shard &s : plan.shards())
                contained |= s.begin <= p && p + max_q <= s.end();
            ASSERT_TRUE(contained)
                << "match [" << p << ", " << p + max_q << ") escapes all "
                << n << " shards";
        }
    }
}

TEST(ShardPlan, SingleShardIsWholeReference)
{
    const auto plan = ShardPlan::fixedWidth(5000, 1, 101);
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan.shards()[0].begin, 0u);
    EXPECT_EQ(plan.shards()[0].length, 5000u);
}

TEST(ShardPlan, TinyReferenceDropsExcessShards)
{
    // 100 bases across 64 requested shards: stride 2, all 50 usable.
    const auto plan = ShardPlan::fixedWidth(100, 64, 8);
    EXPECT_LE(plan.size(), 64u);
    EXPECT_GT(plan.size(), 0u);
    EXPECT_EQ(plan.shards().back().end(), 100u);
}

TEST(ShardPlan, FixedWidthRejectsOverlongQueryBound)
{
    // Regression: max_query_len > ref_len (kUnboundedQueryLen in
    // particular) made overlap_ wrap u64 and opened silent coverage
    // gaps at every boundary; it must be rejected outright.
    EXPECT_DEATH(ShardPlan::fixedWidth(1000, 4, 1001),
                 "exceeds the 1000-base reference");
    EXPECT_DEATH(
        ShardPlan::fixedWidth(1000000, 8, ShardPlan::kUnboundedQueryLen),
        "exceeds the");
    // At exactly ref_len the plan is one full-cover shard per stride.
    const auto plan = ShardPlan::fixedWidth(1000, 4, 1000);
    for (const Shard &s : plan.shards())
        EXPECT_EQ(s.end(), 1000u);
}

TEST(ShardPlan, PerRecordFollowsSpans)
{
    const std::vector<RecordSpan> spans = {
        {"chr1", 0, 4000}, {"chr2", 4000, 2500}, {"chr3", 6500, 1000}};
    const auto plan = ShardPlan::perRecord(spans);
    ASSERT_EQ(plan.size(), 3u);
    EXPECT_EQ(plan.refLength(), 7500u);
    EXPECT_EQ(plan.overlap(), 0u);
    EXPECT_FALSE(plan.boundsQueries());
    EXPECT_EQ(plan.shards()[1],
              (Shard{"chr2", 4000, 2500}));
    expectOneSliceSegments(plan);
}

TEST(ShardPlan, PerRecordSkipsEmptyRecords)
{
    const std::vector<RecordSpan> spans = {
        {"chr1", 0, 4000}, {"empty", 4000, 0}, {"chr2", 4000, 96}};
    const auto plan = ShardPlan::perRecord(spans);
    ASSERT_EQ(plan.size(), 2u);
    EXPECT_EQ(plan.refLength(), 4096u);
    EXPECT_EQ(plan.shards()[1].name, "chr2");
}

TEST(ShardPlan, PerRecordFoldsTinyRecordsIntoNeighbours)
{
    // Real assemblies carry sub-64-base scaffolds; they must merge
    // into a neighbouring shard instead of producing unbuildable
    // tables (or aborting the run).
    const std::vector<RecordSpan> spans = {
        {"chr1", 0, 4000},
        {"scaf1", 4000, 10},   // tiny: opens a pending shard...
        {"scaf2", 4010, 20},   // ...absorbed while still tiny...
        {"chr2", 4030, 1000},  // ...and topped up past the minimum
        {"tail", 5030, 5}};    // tiny at the end: folds backwards
    const auto plan = ShardPlan::perRecord(spans);
    ASSERT_EQ(plan.size(), 2u);
    EXPECT_EQ(plan.shards()[0], (Shard{"chr1", 0, 4000}));
    EXPECT_EQ(plan.shards()[1],
              (Shard{"scaf1+scaf2+chr2+tail", 4000, 1035}));
    EXPECT_EQ(plan.refLength(), 5035u);
    // Every shard is indexable.
    for (const Shard &s : plan.shards())
        EXPECT_GE(s.length, ShardPlan::kMinShardBases);
    // Coverage still gapless and contiguous.
    u64 cursor = 0;
    for (const Shard &s : plan.shards()) {
        EXPECT_EQ(s.begin, cursor);
        cursor = s.end();
    }
    EXPECT_EQ(cursor, plan.refLength());
}

TEST(ShardPlan, PerRecordFoldsLoneLeadingTinyRecordForward)
{
    const std::vector<RecordSpan> spans = {
        {"scaf", 0, 8}, {"chr1", 8, 4088}};
    const auto plan = ShardPlan::perRecord(spans);
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan.shards()[0], (Shard{"scaf+chr1", 0, 4096}));
}

TEST(ShardPlan, KmerPrefixRangesPartitionCodeSpace)
{
    const auto ref = randomRef(2000, 11);
    for (unsigned n : {1u, 2u, 5u, 8u}) {
        const auto plan = ShardPlan::kmerPrefix(ref, n, 12, 3);
        ASSERT_EQ(plan.size(), n);
        ASSERT_EQ(plan.prefixRanges().size(), n);
        EXPECT_EQ(plan.kind(), ShardPlanKind::KmerPrefix);
        EXPECT_EQ(plan.prefixLen(), 3);
        EXPECT_TRUE(plan.boundsQueries());
        EXPECT_EQ(plan.maxQueryLen(), 12u);

        // Contiguous cover of [0, 4^3).
        EXPECT_EQ(plan.prefixRanges().front().lo, 0u);
        EXPECT_EQ(plan.prefixRanges().back().hi, kmerSpace(3));
        for (size_t s = 1; s < n; ++s)
            EXPECT_EQ(plan.prefixRanges()[s].lo,
                      plan.prefixRanges()[s - 1].hi);

        // ownerOf lands inside the containing range for every code.
        for (Kmer c = 0; c < kmerSpace(3); ++c) {
            const size_t s = plan.ownerOf(c);
            EXPECT_TRUE(plan.prefixRanges()[s].contains(c)) << "code " << c;
        }
    }
}

TEST(ShardPlan, KmerPrefixSegmentsCoverEveryOwnedWindow)
{
    const auto ref = randomRef(1500, 23);
    const u64 max_q = 9;
    const auto plan = ShardPlan::kmerPrefix(ref, 4, max_q, 3);

    for (size_t s = 0; s < plan.size(); ++s) {
        if (!plan.segmentsOf(s).empty())
            validateSegments(plan.segmentsOf(s), ref.size());
        EXPECT_EQ(plan.shards()[s].length,
                  segmentsLocalLength(plan.segmentsOf(s)));
    }

    // Routing invariant: every position's full context window lies
    // inside one segment of its owner's map, so any match starting
    // there (length <= max_q) is findable in the owner shard.
    for (u64 g = 0; g < ref.size(); ++g) {
        const size_t s = plan.ownerOf(paddedCode(ref, g, 3));
        const u64 wend = std::min<u64>(ref.size(), g + max_q);
        bool covered = false;
        for (const TextSegment &seg : plan.segmentsOf(s))
            covered |= seg.global_begin <= g && wend <= seg.global_end();
        ASSERT_TRUE(covered)
            << "window [" << g << ", " << wend << ") escapes shard " << s;
    }
}

TEST(ShardPlan, KmerPrefixQueryRangeCoversPaddedOwnership)
{
    const auto ref = randomRef(800, 31);
    const int p = 4;
    const auto plan = ShardPlan::kmerPrefix(ref, 4, 16, p);

    // Full-length prefix pins exactly one code.
    for (u64 g = 0; g + static_cast<u64>(p) <= ref.size(); g += 37) {
        const PrefixRange r = plan.queryPrefixRange(ref.data() + g, 16);
        EXPECT_EQ(r.hi, r.lo + 1);
        EXPECT_EQ(r.lo, packKmer(ref.data() + g, p));
    }
    // A short query's padded range contains the padded code of every
    // position it can match at — including tail positions.
    Rng rng(5);
    for (int rep = 0; rep < 200; ++rep) {
        const u64 len = 1 + rng.below(static_cast<u64>(p) - 1);
        const u64 g = rng.below(ref.size() - 1);
        const u64 take = std::min<u64>(len, ref.size() - g);
        const PrefixRange r = plan.queryPrefixRange(ref.data() + g, take);
        EXPECT_TRUE(r.contains(paddedCode(ref, g, p)))
            << "pos " << g << " len " << take;
    }
}

TEST(ShardPlan, KmerPrefixAutoPrefixScalesWithShardCount)
{
    const auto ref = randomRef(4000, 7);
    for (unsigned n : {1u, 4u, 64u}) {
        const auto plan = ShardPlan::kmerPrefix(ref, n, 8);
        EXPECT_GE(plan.prefixLen(), 2);
        EXPECT_LE(plan.prefixLen(), 8);
        EXPECT_TRUE(plan.prefixLen() == 8 ||
                    kmerSpace(plan.prefixLen()) >= u64{64} * n)
            << "shards " << n << " got p=" << plan.prefixLen();
    }
}

TEST(ShardPlan, KmerPrefixSkewedReferenceLeavesEmptyRanges)
{
    // All-A reference: one shard owns everything, the rest own code
    // ranges with no occurrences — legal, with empty segment maps.
    const std::vector<Base> ref(300, 0);
    const auto plan = ShardPlan::kmerPrefix(ref, 4, 8, 2);
    ASSERT_EQ(plan.size(), 4u);
    EXPECT_EQ(plan.segmentsOf(0).size(), 1u);
    EXPECT_EQ(plan.segmentsOf(0)[0].length, 300u);
    for (size_t s = 1; s < plan.size(); ++s) {
        EXPECT_TRUE(plan.segmentsOf(s).empty()) << "shard " << s;
        EXPECT_EQ(plan.shards()[s].length, 0u);
    }
    // ownerOf still resolves every code despite the empty ranges.
    for (Kmer c = 0; c < kmerSpace(2); ++c)
        EXPECT_TRUE(plan.prefixRanges()[plan.ownerOf(c)].contains(c));
}

} // namespace
} // namespace exma
