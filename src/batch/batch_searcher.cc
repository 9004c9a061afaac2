#include "batch/batch_searcher.hh"

#include <algorithm>
#include <chrono>
#include <span>

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace exma {

BatchSearcher::BatchSearcher(const ExmaTable &table, BatchConfig cfg)
    : table_(table), cfg_(cfg)
{
}

BatchResult
BatchSearcher::search(const std::vector<std::vector<Base>> &queries) const
{
    return run(queries, nullptr);
}

BatchResult
BatchSearcher::search(const std::vector<std::vector<Base>> &queries,
                      const std::vector<u32> &ids) const
{
    for (u32 id : ids)
        exma_assert(id < queries.size(),
                    "subset id %u exceeds the %zu-query batch", id,
                    queries.size());
    return run(queries, &ids);
}

namespace {

/**
 * Resolve one searched chunk's intervals to hit lists. Every row the
 * chunk's intervals hold goes on rings of LF walks
 * (ExmaTable::locateRows) of up to kLaneSlice rows, with a
 * @p progress tick after each, so a chunk whose short queries locate
 * thousands of hits still shows movement; then each query's share is
 * finished by ExmaTable::globalHits, which keeps the lowest @p limit
 * global positions.
 */
void
locateChunk(const ExmaTable &table, std::span<const Interval> ivs,
            u64 limit, std::span<std::vector<u64>> hits,
            const std::function<void()> &progress)
{
    std::vector<u64> rows;
    for (const Interval &iv : ivs)
        for (u64 r = iv.low; r < iv.high; ++r)
            rows.push_back(r);
    for (size_t at = 0; at < rows.size(); at += kLaneSlice) {
        table.locateRows(std::span(rows).subspan(
            at, std::min<size_t>(kLaneSlice, rows.size() - at)));
        if (progress)
            progress();
    }
    auto first = rows.begin();
    for (size_t j = 0; j < ivs.size(); ++j) {
        const auto last = first + static_cast<std::ptrdiff_t>(ivs[j].count());
        hits[j].assign(first, last);
        first = last;
        table.globalHits(hits[j], limit);
    }
}

} // namespace

BatchResult
BatchSearcher::run(const std::vector<std::vector<Base>> &queries,
                   const std::vector<u32> *ids) const
{
    const u64 n = ids ? ids->size() : queries.size();
    BatchResult out;
    out.queries = n;
    out.intervals.resize(n);
    const unsigned slots = parallelForSlots(cfg_.threads);
    out.per_thread.assign(slots, SearchStats{});
    if (cfg_.per_query_stats)
        out.per_query.assign(n, SearchStats{});
    if (cfg_.locate)
        out.positions.resize(n);
    const u64 locate_limit = cfg_.locate_limit ? cfg_.locate_limit
                                               : ~u64{0};

    // A lone participant has no thread to balance: it runs the batch
    // as kLaneSlice-query slices, so its rings stay full.
    const u64 grain = slots == 1 ? kLaneSlice : cfg_.grain;

    const auto t0 = std::chrono::steady_clock::now();
    parallelFor(
        n, grain,
        [&](u64 begin, u64 end, unsigned slot) {
            const u64 m = end - begin;
            std::vector<const std::vector<Base> *> chunk(m);
            for (u64 j = 0; j < m; ++j)
                chunk[j] = &queries[ids ? (*ids)[begin + j] : begin + j];
            std::vector<SearchStats> scratch;
            std::span<SearchStats> stats;
            if (cfg_.per_query_stats) {
                stats = std::span(out.per_query).subspan(begin, m);
            } else {
                scratch.resize(m);
                stats = scratch;
            }
            const auto ivs = std::span(out.intervals).subspan(begin, m);
            table_.search(chunk, ivs, stats);
            for (const SearchStats &qs : stats)
                out.per_thread[slot] += qs;
            if (cfg_.locate)
                locateChunk(table_, ivs, locate_limit,
                            std::span(out.positions).subspan(begin, m),
                            cfg_.progress);
            if (cfg_.progress)
                cfg_.progress();
        },
        cfg_.threads);
    const auto t1 = std::chrono::steady_clock::now();

    out.seconds = std::chrono::duration<double>(t1 - t0).count();
    for (u64 i = 0; i < n; ++i)
        out.bases += queries[ids ? (*ids)[i] : i].size();
    for (const SearchStats &s : out.per_thread)
        out.stats += s;
    return out;
}

} // namespace exma
