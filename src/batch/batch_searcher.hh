/**
 * @file
 * Batched, thread-pooled front end over ExmaTable::search — the
 * serving-scale counterpart of the paper's query-level parallelism
 * (EXMA's CAM scheduler keeps hundreds of searches in flight; Fig. 18
 * judges the design on Mbases/s over large query batches).
 *
 * The searcher fans a query batch out across a ThreadPool with chunked
 * dynamic scheduling. Results land at their query's index, so output
 * ordering is deterministic and bit-identical to a sequential loop
 * regardless of thread count or scheduling order; instrumentation is
 * accumulated per worker slot and merged afterwards (counter sums are
 * order-independent), so the hot path takes no locks.
 */

#ifndef EXMA_BATCH_BATCH_SEARCHER_HH
#define EXMA_BATCH_BATCH_SEARCHER_HH

#include <functional>
#include <vector>

#include "common/dna.hh"
#include "common/search_stats.hh"
#include "core/exma_table.hh"

namespace exma {

struct BatchConfig
{
    /** Worker width: 0 = all hardware threads, 1 = sequential. */
    unsigned threads = 0;
    /** Queries per dynamically claimed chunk. */
    u64 grain = 16;
    /**
     * Liveness hook: called once per completed chunk, from whichever
     * thread ran it. ShardWorker points this at its heartbeat counter
     * so the WorkerSupervisor can tell a legitimately slow batch
     * (heartbeat advancing) from a hung one (heartbeat frozen). Must
     * be cheap and thread-safe; null = no calls.
     */
    std::function<void()> progress;
    /** Record per-query SearchStats too (costs one vector of stats). */
    bool per_query_stats = false;
    /**
     * Also resolve each query's interval to text positions
     * (BatchResult::positions, sorted ascending). This is what sharded
     * serving needs: row intervals of different shard tables are not
     * comparable, text positions are. Segment-mapped tables
     * (ExmaTable::segmented()) locate through locateAllGlobal, so the
     * reported positions are global coordinates with junction
     * artifacts already dropped.
     */
    bool locate = false;
    /**
     * Cap on located positions per query; 0 = unlimited. The cap
     * keeps the first `locate_limit` occurrences in suffix-array row
     * order — the usual FM-index "report up to N" idiom — then sorts
     * the survivors, so which subset is kept is index-dependent.
     * Callers needing the lowest N text positions should use
     * ShardRouter::search, whose cap applies globally after the
     * cross-shard merge.
     */
    u64 locate_limit = 0;
};

/** Outcome of one batch: index-aligned with the input queries. */
struct BatchResult
{
    std::vector<Interval> intervals;
    std::vector<std::vector<u64>> positions; ///< iff cfg.locate (sorted)
    SearchStats stats;                     ///< merged across all workers
    std::vector<SearchStats> per_thread;   ///< one per participant slot
    std::vector<SearchStats> per_query;    ///< iff cfg.per_query_stats
    u64 queries = 0;
    u64 bases = 0;     ///< total query symbols searched
    double seconds = 0.0;

    double
    mbasesPerSecond() const
    {
        return seconds > 0.0
                   ? static_cast<double>(bases) / seconds / 1e6
                   : 0.0;
    }
};

class BatchSearcher
{
  public:
    explicit BatchSearcher(const ExmaTable &table, BatchConfig cfg = {});

    const BatchConfig &config() const { return cfg_; }

    /** Search every query; wall-clock timed (result.seconds). */
    BatchResult search(const std::vector<std::vector<Base>> &queries) const;

    /**
     * Routed fan-out path: search only the queries selected by @p ids
     * (indices into @p queries, any order, duplicates allowed).
     * Results are index-aligned with @p ids — result.intervals[j]
     * belongs to queries[ids[j]] — so a ShardRouter can hand each
     * shard worker its own id list over one shared batch and scatter
     * the responses back without copying query storage.
     */
    BatchResult search(const std::vector<std::vector<Base>> &queries,
                       const std::vector<u32> &ids) const;

  private:
    BatchResult run(const std::vector<std::vector<Base>> &queries,
                    const std::vector<u32> *ids) const;

    const ExmaTable &table_;
    BatchConfig cfg_;
};

} // namespace exma

#endif // EXMA_BATCH_BATCH_SEARCHER_HH
