#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "batch/batch_searcher.hh"
#include "common/inflight.hh"
#include "common/rng.hh"
#include "genome/reads.hh"
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
        spec.seed = 77;
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

const ExmaTable &
mtlTable()
{
    static const ExmaTable table(testRef(), cfgFor(OccIndexMode::Mtl));
    return table;
}

/**
 * A randomized query mix: mostly substrings of the reference (hits,
 * various lengths so the k-step/1-step split varies), plus pure-random
 * queries that mostly miss, plus a couple of degenerate lengths.
 */
std::vector<std::vector<Base>>
randomQueries(u64 count, u64 seed)
{
    const auto &ref = testRef();
    Rng rng(seed);
    std::vector<std::vector<Base>> qs;
    qs.reserve(count);
    for (u64 i = 0; i < count; ++i) {
        const u64 len = 3 + rng.below(60);
        std::vector<Base> q;
        if (i % 4 != 3 && len <= ref.size()) {
            const u64 pos = rng.below(ref.size() - len + 1);
            q.assign(ref.begin() + static_cast<std::ptrdiff_t>(pos),
                     ref.begin() + static_cast<std::ptrdiff_t>(pos + len));
        } else {
            q.resize(len);
            for (auto &b : q)
                b = static_cast<Base>(rng.below(4));
        }
        qs.push_back(std::move(q));
    }
    return qs;
}

/** Sequential ground truth straight through ExmaTable::search. */
std::pair<std::vector<Interval>, SearchStats>
sequentialReference(const ExmaTable &table,
                    const std::vector<std::vector<Base>> &qs)
{
    std::vector<Interval> ivs;
    ivs.reserve(qs.size());
    SearchStats stats;
    for (const auto &q : qs)
        ivs.push_back(table.search(q, &stats));
    return {ivs, stats};
}

TEST(BatchSearcher, EmptyBatch)
{
    BatchSearcher bs(mtlTable());
    const BatchResult r = bs.search({});
    EXPECT_TRUE(r.intervals.empty());
    EXPECT_EQ(r.queries, 0u);
    EXPECT_EQ(r.bases, 0u);
    EXPECT_EQ(r.stats, SearchStats{});
}

TEST(BatchSearcher, BitIdenticalToSequentialAcrossThreadCounts)
{
    const ExmaTable &table = mtlTable();
    const auto qs = randomQueries(300, 9);
    const auto [expect_ivs, expect_stats] = sequentialReference(table, qs);

    for (unsigned threads : {1u, 2u, 8u}) {
        BatchConfig cfg;
        cfg.threads = threads;
        cfg.grain = 7; // deliberately not a divisor of the batch size
        const BatchResult r = BatchSearcher(table, cfg).search(qs);
        EXPECT_EQ(r.intervals, expect_ivs) << "threads=" << threads;
        EXPECT_EQ(r.stats, expect_stats) << "threads=" << threads;
        EXPECT_EQ(r.queries, qs.size());
    }
}

TEST(BatchSearcher, AllOccModesMatchSequential)
{
    for (const OccIndexMode mode :
         {OccIndexMode::Exact, OccIndexMode::NaiveLearned,
          OccIndexMode::Mtl}) {
        const ExmaTable table(testRef(), cfgFor(mode));
        const auto qs = randomQueries(120, 31);
        const auto [expect_ivs, expect_stats] =
            sequentialReference(table, qs);
        BatchConfig cfg;
        cfg.threads = 8;
        cfg.grain = 5;
        const BatchResult r = BatchSearcher(table, cfg).search(qs);
        EXPECT_EQ(r.intervals, expect_ivs);
        EXPECT_EQ(r.stats, expect_stats);
    }
}

TEST(BatchSearcher, PerQueryStatsSumToTotal)
{
    BatchConfig cfg;
    cfg.threads = 2;
    const auto qs = randomQueries(150, 21);
    const ExmaTable &table = mtlTable();
    const BatchResult r = BatchSearcher(table, cfg).search(qs);
    // Each query's lone search, summed, is the batch's total.
    SearchStats sum;
    for (const auto &q : qs) {
        SearchStats lone;
        table.search(q, &lone);
        sum += lone;
    }
    EXPECT_EQ(sum, r.stats);
}

TEST(BatchSearcher, LocateResolvesIntervalsToSortedPositions)
{
    const ExmaTable &table = mtlTable();
    const auto qs = randomQueries(80, 17);
    BatchConfig cfg;
    cfg.threads = 4;
    cfg.locate = true;
    const BatchResult r = BatchSearcher(table, cfg).search(qs);
    ASSERT_EQ(r.positions.size(), qs.size());
    for (size_t i = 0; i < qs.size(); ++i) {
        auto expect = table.locateAll(r.intervals[i]);
        std::sort(expect.begin(), expect.end());
        EXPECT_EQ(r.positions[i], expect) << "i=" << i;
        EXPECT_EQ(r.positions[i].size(), r.intervals[i].count());
    }
    // Off by default: no positions vector is filled.
    const BatchResult plain = BatchSearcher(table).search(qs);
    EXPECT_TRUE(plain.positions.empty());
}

TEST(BatchSearcher, LocateLimitCapsPositions)
{
    const ExmaTable &table = mtlTable();
    const auto qs = randomQueries(60, 29);
    BatchConfig cfg;
    cfg.locate = true;
    cfg.locate_limit = 2;
    const BatchResult r = BatchSearcher(table, cfg).search(qs);
    for (size_t i = 0; i < qs.size(); ++i) {
        // The cap keeps the lowest two positions of the full hit set
        // (BatchConfig::locate_limit).
        auto lowest = table.locateAll(r.intervals[i]);
        std::sort(lowest.begin(), lowest.end());
        if (lowest.size() > 2)
            lowest.resize(2);
        EXPECT_EQ(r.positions[i], lowest) << "i=" << i;
    }
}

TEST(BatchSearcher, CountsBases)
{
    const auto qs = randomQueries(50, 3);
    u64 bases = 0;
    for (const auto &q : qs)
        bases += q.size();
    const BatchResult r = BatchSearcher(mtlTable()).search(qs);
    EXPECT_EQ(r.bases, bases);
    EXPECT_GE(r.seconds, 0.0);
}

TEST(BatchSearcher, SubsetSearchAlignsResultsWithIds)
{
    // The routed fan-out path: a shard worker serves only its ids out
    // of a shared batch, results index-aligned with the id list.
    const auto qs = randomQueries(60, 9);
    BatchConfig cfg;
    cfg.locate = true;
    const ExmaTable &table = mtlTable();
    const BatchSearcher searcher(table, cfg);
    const BatchResult full = searcher.search(qs);

    // Scattered, unordered, with a duplicate.
    const std::vector<u32> ids = {57, 3, 3, 41, 0, 12, 59, 28};
    const BatchResult sub = searcher.search(qs, ids);
    ASSERT_EQ(sub.queries, ids.size());
    ASSERT_EQ(sub.intervals.size(), ids.size());
    ASSERT_EQ(sub.positions.size(), ids.size());
    u64 bases = 0;
    SearchStats merged;
    for (size_t j = 0; j < ids.size(); ++j) {
        EXPECT_EQ(sub.intervals[j], full.intervals[ids[j]]) << "j=" << j;
        EXPECT_EQ(sub.positions[j], full.positions[ids[j]]) << "j=" << j;
        bases += qs[ids[j]].size();
        table.search(qs[ids[j]], &merged);
    }
    EXPECT_EQ(sub.bases, bases);
    // The subset total counts each id once, duplicates included.
    EXPECT_EQ(merged, sub.stats);
}

TEST(BatchSearcher, SubsetSearchEmptyIds)
{
    const auto qs = randomQueries(10, 21);
    const BatchResult r = BatchSearcher(mtlTable()).search(qs, {});
    EXPECT_EQ(r.queries, 0u);
    EXPECT_TRUE(r.intervals.empty());
    EXPECT_EQ(r.stats, SearchStats{});
}

TEST(BatchSearcher, SegmentedTableLocatesGlobalPositions)
{
    // A table over one slice of the reference: BatchSearcher's locate
    // path must report global coordinates (ExmaTable::locateAllGlobal),
    // not local positions — exactly the whole-reference hits that lie
    // inside the slice.
    const auto &ref = testRef();
    const TextSegment slice{5000, 800};
    const ExmaTable seg_table(ref, slice, cfgFor(OccIndexMode::Exact));
    ASSERT_EQ(seg_table.slice(), slice);
    const ExmaTable &whole = mtlTable();

    Rng rng(4);
    for (int rep = 0; rep < 30; ++rep) {
        const u64 len = 8 + rng.below(12);
        const u64 pos = slice.global_begin + rng.below(slice.length - len);
        const std::vector<Base> q(
            ref.begin() + static_cast<std::ptrdiff_t>(pos),
            ref.begin() + static_cast<std::ptrdiff_t>(pos + len));
        BatchConfig cfg;
        cfg.locate = true;
        const BatchResult r = BatchSearcher(seg_table, cfg).search({q});
        std::vector<u64> expect;
        for (const u64 hit : whole.locateAll(whole.search(q)))
            if (hit >= slice.global_begin &&
                hit + len <= slice.global_end())
                expect.push_back(hit);
        std::sort(expect.begin(), expect.end());
        EXPECT_EQ(r.positions[0], expect) << "rep " << rep;
        EXPECT_TRUE(std::binary_search(r.positions[0].begin(),
                                       r.positions[0].end(), pos))
            << "rep " << rep;
    }
}

// ---------------------------------------------------------------------
// The staged engine at its edges. kInFlight searches (and LF walks) are
// in flight per lane, so every size below is written in terms of it:
// retuning the constant keeps the cases on the ring's boundaries. The
// oracles share no code with the engine: FmIndex::search (the 1-step
// search) for intervals, and a naive scan of the reference for hits.

constexpr u64 kW = kInFlight;

/** Every occurrence of @p q in @p ref, ascending (std::search). */
std::vector<u64>
naiveHits(const std::vector<Base> &ref, const std::vector<Base> &q)
{
    std::vector<u64> out;
    for (auto it = ref.begin();; ++it) {
        it = std::search(it, ref.end(), q.begin(), q.end());
        if (it == ref.end())
            return out;
        out.push_back(static_cast<u64>(it - ref.begin()));
    }
}

/**
 * Queries of every length class around the step: 1, k-1, k, k+1, 2k and
 * 2k+3 bases, cycling, drawn from @p ref (hits) or at random (mostly
 * misses at the longer lengths).
 */
std::vector<std::vector<Base>>
edgeQueries(const std::vector<Base> &ref, int k, u64 count, u64 seed)
{
    const std::array<u64, 6> lens = {
        1,
        static_cast<u64>(k - 1),
        static_cast<u64>(k),
        static_cast<u64>(k + 1),
        static_cast<u64>(2 * k),
        static_cast<u64>(2 * k + 3)};
    Rng rng(seed);
    std::vector<std::vector<Base>> qs;
    for (u64 i = 0; i < count; ++i) {
        const u64 len = std::max<u64>(lens[i % lens.size()], 1);
        std::vector<Base> q(len);
        if (i % 5 == 4) {
            for (auto &b : q)
                b = static_cast<Base>(rng.below(4));
        } else {
            const u64 pos = rng.below(ref.size() - len + 1);
            std::copy_n(ref.begin() + static_cast<std::ptrdiff_t>(pos),
                        len, q.begin());
        }
        qs.push_back(std::move(q));
    }
    return qs;
}

/** naiveHits of every query of @p qs, index-aligned. */
std::vector<std::vector<u64>>
naiveHitsOfAll(const std::vector<Base> &ref,
               const std::vector<std::vector<Base>> &qs)
{
    std::vector<std::vector<u64>> out;
    for (const auto &q : qs)
        out.push_back(naiveHits(ref, q));
    return out;
}

/**
 * Check one located batch result against the oracles, query by query:
 * @p hits holds the naive hits of every query of @p qs.
 */
void
expectMatchesOracles(const ExmaTable &table,
                     const std::vector<std::vector<Base>> &qs,
                     const std::vector<std::vector<u64>> &hits,
                     const std::vector<u32> &ids, const BatchResult &r,
                     const std::string &what)
{
    ASSERT_EQ(r.intervals.size(), ids.size()) << what;
    ASSERT_EQ(r.positions.size(), ids.size()) << what;
    SearchStats total;
    for (size_t j = 0; j < ids.size(); ++j) {
        const std::vector<Base> &q = qs[ids[j]];
        const Interval expect = table.fmIndex().search(q);
        // An empty interval's position is where the search stopped,
        // which differs between k-step and 1-step search.
        EXPECT_EQ(r.intervals[j].empty(), expect.empty())
            << what << " j=" << j;
        if (!expect.empty()) {
            EXPECT_EQ(r.intervals[j], expect) << what << " j=" << j;
        }
        EXPECT_EQ(r.positions[j], hits[ids[j]]) << what << " j=" << j;
        table.search(q, &total);
    }
    EXPECT_EQ(r.stats, total) << what;
}

TEST(StagedSearch, BatchSizesAndGrainsAroundTheRingWidth)
{
    const auto &ref = testRef();
    const ExmaTable &table = mtlTable();
    const auto pool = edgeQueries(ref, table.k(), 3 * kW + 1, 5);
    const auto hits = naiveHitsOfAll(ref, pool);
    for (const u64 n : {u64{0}, u64{1}, kW - 1, kW, kW + 1, 3 * kW + 1}) {
        // A grain of 1 divides every n and kW divides kW; 3 divides
        // few of them; n + 1 puts the whole batch in one chunk.
        for (const u64 grain : {u64{1}, u64{3}, kW, n + 1}) {
            BatchConfig cfg;
            cfg.threads = 2;
            cfg.grain = grain;
            cfg.locate = true;
            std::vector<u32> ids(n);
            for (u32 j = 0; j < n; ++j)
                ids[j] = j;
            const BatchResult r =
                BatchSearcher(table, cfg).search(pool, ids);
            expectMatchesOracles(table, pool, hits, ids, r,
                                 "n=" + std::to_string(n) +
                                     " grain=" + std::to_string(grain));
        }
    }
}

TEST(StagedSearch, EveryOccModeWithDuplicateIds)
{
    const auto &ref = testRef();
    for (const OccIndexMode mode :
         {OccIndexMode::Exact, OccIndexMode::NaiveLearned,
          OccIndexMode::Mtl}) {
        const ExmaTable table(ref, cfgFor(mode));
        const auto qs = edgeQueries(ref, table.k(), 2 * kW + 3, 41);
        // Every query twice, the copies kW apart, so a chunk holds
        // the same query in two ring slots at once.
        std::vector<u32> ids;
        for (u32 j = 0; j < qs.size(); ++j) {
            ids.push_back(j);
            if (j >= kW)
                ids.push_back(static_cast<u32>(j - kW));
        }
        for (u32 j = static_cast<u32>(qs.size() - kW); j < qs.size(); ++j)
            ids.push_back(j);
        BatchConfig cfg;
        cfg.threads = 2; // pooled: `grain` still cuts chunks
        cfg.grain = 2 * kW;
        cfg.locate = true;
        const BatchResult r = BatchSearcher(table, cfg).search(qs, ids);
        expectMatchesOracles(
            table, qs, naiveHitsOfAll(ref, qs), ids, r,
            "mode=" + std::to_string(static_cast<int>(mode)));
    }
}

TEST(StagedSearch, EngineCallMatchesLoneSearches)
{
    // ExmaTable's span entry point directly: one chunk of 3kW+1
    // queries, one of them repeated, against the one-query call.
    const ExmaTable &table = mtlTable();
    const auto qs = edgeQueries(testRef(), table.k(), 3 * kW + 1, 8);
    std::vector<const std::vector<Base> *> chunk;
    for (const auto &q : qs)
        chunk.push_back(&q);
    chunk[kW] = chunk[0];
    std::vector<Interval> ivs(chunk.size());
    SearchStats stats{99, 0, 0, 0, 0};
    table.search(chunk, ivs, stats);
    SearchStats expect{99, 0, 0, 0, 0}; // added to, not overwritten
    for (size_t j = 0; j < chunk.size(); ++j)
        EXPECT_EQ(ivs[j], table.search(*chunk[j], &expect)) << "j=" << j;
    EXPECT_EQ(stats, expect);
}

/** A reference and queries whose intervals hold hundreds of rows. */
struct RepeatRich
{
    std::vector<Base> ref;
    std::vector<std::vector<Base>> qs;
    ExmaTable table;
};

/**
 * A 37-base unit tandem-repeated hundreds of times between random
 * stretches, and substrings of it: their intervals hold hundreds of
 * rows, so each one alone refills the kW-walk ring many times over.
 */
const RepeatRich &
repeatRich()
{
    static const RepeatRich fixture = [] {
        Rng rng(12);
        std::vector<Base> unit(37);
        for (auto &b : unit)
            b = static_cast<Base>(rng.below(4));
        std::vector<Base> ref;
        for (int block = 0; block < 6; ++block) {
            for (int i = 0; i < 2000; ++i)
                ref.push_back(static_cast<Base>(rng.below(4)));
            for (int copy = 0; copy < 60; ++copy)
                ref.insert(ref.end(), unit.begin(), unit.end());
        }
        std::vector<Base> twice = unit;
        twice.insert(twice.end(), unit.begin(), unit.end());
        std::vector<std::vector<Base>> qs;
        for (u64 len : {u64{3}, u64{6}, u64{9}, u64{20}, u64{37}, u64{40}})
            for (u64 at : {u64{0}, u64{11}})
                qs.emplace_back(
                    twice.begin() + static_cast<std::ptrdiff_t>(at),
                    twice.begin() + static_cast<std::ptrdiff_t>(at + len));
        ExmaTable table(ref, cfgFor(OccIndexMode::Exact));
        return RepeatRich{std::move(ref), std::move(qs), std::move(table)};
    }();
    return fixture;
}

TEST(StagedSearch, RepeatRichIntervalsRefillTheLocateRing)
{
    const RepeatRich &rr = repeatRich();
    std::vector<u32> ids(rr.qs.size());
    for (u32 j = 0; j < ids.size(); ++j)
        ids[j] = j;
    BatchConfig cfg;
    cfg.threads = 2; // pooled: `grain` still cuts chunks
    cfg.grain = kW + 1;
    cfg.locate = true;
    const BatchResult r = BatchSearcher(rr.table, cfg).search(rr.qs, ids);
    u64 most = 0;
    for (const auto &pos : r.positions)
        most = std::max<u64>(most, pos.size());
    EXPECT_GE(most, 300u) << "fixture no longer yields big intervals";
    expectMatchesOracles(rr.table, rr.qs, naiveHitsOfAll(rr.ref, rr.qs), ids,
                         r, "repeat-rich");
}

TEST(StagedSearch, LocateLimitKeepsLowestGlobalHitsOnSegmentedTables)
{
    // Every table locates every row, then keeps the lowest
    // `locate_limit` global positions: the oracle is a naive scan of
    // the table's slice, shifted to global coordinates. A slice table
    // and a whole-reference table (the slice [0, n)) follow one rule.
    const auto &ref = testRef();
    const ExmaTable slice_table(ref, TextSegment{9000, 8000},
                                cfgFor(OccIndexMode::Exact));
    for (const ExmaTable *table : {&slice_table, &mtlTable()}) {
        const TextSegment seg = table->slice();
        const std::vector<Base> slice = extractSegment(ref, seg);
        const auto qs = edgeQueries(slice, table->k(), 3 * kW + 1, 23);
        for (const u64 limit : {u64{0}, u64{1}, kW + 1}) {
            BatchConfig cfg;
            cfg.threads = 2; // pooled: `grain` still cuts chunks
            cfg.grain = kW - 1;
            cfg.locate = true;
            cfg.locate_limit = limit;
            const BatchResult r = BatchSearcher(*table, cfg).search(qs);
            for (size_t i = 0; i < qs.size(); ++i) {
                std::vector<u64> expect;
                for (u64 pos : naiveHits(slice, qs[i]))
                    expect.push_back(seg.global_begin + pos);
                if (limit != 0 && expect.size() > limit)
                    expect.resize(limit);
                EXPECT_EQ(r.positions[i], expect)
                    << "slice at " << seg.global_begin
                    << " limit=" << limit << " i=" << i;
            }
        }
    }
}

// ---------------------------------------------------------------------
// One participant: a serving lane. It runs its batch as kLaneSlice-query
// slices whatever `grain` says, and its heartbeat ticks per slice and
// per kLaneSlice located rows.

/** A one-participant located run of @p ids that counts heartbeat ticks. */
std::pair<BatchResult, u64>
laneRun(const ExmaTable &table, const std::vector<std::vector<Base>> &qs,
        const std::vector<u32> &ids, u64 grain)
{
    u64 ticks = 0;
    BatchConfig cfg;
    cfg.threads = 1;
    cfg.grain = grain;
    cfg.locate = true;
    cfg.progress = [&ticks] { ++ticks; };
    BatchResult r = BatchSearcher(table, cfg).search(qs, ids);
    return {std::move(r), ticks};
}

TEST(StagedSearch, LaneRunsFullSlicesWhateverTheGrain)
{
    // More queries than one slice holds, cycling over a pool of
    // distinct ones (hits and misses of 3 to 62 bases), so the last
    // slice is a partial one of kW + 1 queries.
    const auto &ref = testRef();
    const ExmaTable &table = mtlTable();
    const auto pool = randomQueries(3 * kW + 1, 61);
    const auto hits = naiveHitsOfAll(ref, pool);
    const u64 n = kLaneSlice + kW + 1;
    std::vector<u32> ids(n);
    for (u32 j = 0; j < n; ++j)
        ids[j] = static_cast<u32>(j % pool.size());
    const u64 slices = (n + kLaneSlice - 1) / kLaneSlice;

    const auto [first, first_ticks] = laneRun(table, pool, ids, 1);
    expectMatchesOracles(table, pool, hits, ids, first, "grain=1");
    EXPECT_GE(first_ticks, slices);
    for (const u64 grain : {kW, n + 1}) {
        const auto [r, ticks] = laneRun(table, pool, ids, grain);
        const std::string what = "grain=" + std::to_string(grain);
        EXPECT_EQ(r.intervals, first.intervals) << what;
        EXPECT_EQ(r.positions, first.positions) << what;
        EXPECT_EQ(r.stats, first.stats) << what;
        EXPECT_EQ(ticks, first_ticks) << what;
    }
}

TEST(StagedSearch, LaneLocateTicksEveryLaneSliceOfRows)
{
    // One slice of repeat-rich queries whose intervals hold more rows
    // than one locateRows call takes: the heartbeat ticks after each
    // kLaneSlice rows and once more for the slice.
    const RepeatRich &rr = repeatRich();
    std::vector<u32> ids;
    for (int round = 0; round < 20; ++round)
        for (u32 j = 0; j < rr.qs.size(); ++j)
            ids.push_back(j);
    ASSERT_LT(ids.size(), kLaneSlice);
    const auto [r, ticks] = laneRun(rr.table, rr.qs, ids, kW);
    u64 rows = 0;
    for (const auto &pos : r.positions)
        rows += pos.size();
    ASSERT_GT(rows, 2 * kLaneSlice) << "fixture no longer locates enough";
    EXPECT_GE(ticks, rows / kLaneSlice + 1);
    expectMatchesOracles(rr.table, rr.qs, naiveHitsOfAll(rr.ref, rr.qs), ids,
                         r, "repeat-rich lane");
}

} // namespace
} // namespace exma
