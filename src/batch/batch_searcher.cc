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
 * Queries per dynamically claimed chunk of a pooled run: small enough
 * to balance the threads, large enough to keep a ring of kInFlight
 * searches busy for most of the chunk.
 */
constexpr u64 kPoolGrain = 16;

/**
 * Resolve one searched chunk's intervals to hit lists. Every row the
 * chunk's intervals hold goes on rings of LF walks
 * (ExmaTable::locateRows) of up to kLaneSlice rows, with a
 * @p progress tick after each, so a chunk whose short queries locate
 * thousands of hits still shows movement; then each query's share is
 * finished by ExmaTable::globalHits.
 */
void
locateChunk(const ExmaTable &table, std::span<const Interval> ivs,
            std::span<std::vector<u64>> hits,
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
        table.globalHits(hits[j]);
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
    std::vector<SearchStats> per_slot(slots);
    if (cfg_.locate)
        out.positions.resize(n);

    // A lone participant has no thread to balance: it runs the batch
    // as kLaneSlice-query slices, so its rings stay full.
    const u64 grain = slots == 1 ? kLaneSlice : kPoolGrain;

    const auto t0 = std::chrono::steady_clock::now();
    parallelFor(
        n, grain,
        [&](u64 begin, u64 end, unsigned slot) {
            const u64 m = end - begin;
            std::vector<const std::vector<Base> *> chunk(m);
            for (u64 j = 0; j < m; ++j)
                chunk[j] = &queries[ids ? (*ids)[begin + j] : begin + j];
            const auto ivs = std::span(out.intervals).subspan(begin, m);
            // Summed on the stack, then added once per chunk: slots
            // share cache lines, and the search updates its stats at
            // every step.
            SearchStats chunk_stats;
            table_.search(chunk, ivs, chunk_stats);
            per_slot[slot] += chunk_stats;
            if (cfg_.locate)
                locateChunk(table_, ivs,
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
    for (const SearchStats &s : per_slot)
        out.stats += s;
    return out;
}

} // namespace exma
