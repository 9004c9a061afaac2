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
 * accumulated per participant slot inside run() and merged afterwards
 * (counter sums are order-independent), so the hot path takes no
 * locks.
 *
 * Each chunk runs in two stages on its thread, both overlapping cache
 * misses across the chunk's queries:
 *
 *  1. search: ExmaTable's staged engine keeps kInFlight of the chunk's
 *     searches in flight, each advancing one memory stage per visit
 *     (k-mer base pointers, increment lines, resolve; or a 1-step's two
 *     rank blocks) while the others' prefetches land;
 *  2. locate: the rows the chunk's intervals need go on rings of
 *     kInFlight LF walks (ExmaTable::locateRows), kLaneSlice rows per
 *     call, then each query's share is translated, sorted and capped
 *     (ExmaTable::globalHits).
 *
 * A chunk's size follows the participant count. A run with one
 * participant (threads = 1: every serving lane, in process or in
 * exma-worker) has no thread to balance, so its chunks are
 * kLaneSlice-query slices and both rings stay full until a slice's last
 * kInFlight searches. A pooled run claims `grain`-query chunks from a
 * shared cursor: that balances its threads, and each chunk's rings
 * drain to one job every `grain` queries.
 *
 * A one-query chunk runs the same stages with nothing to overlap, so
 * the search is sequential plus a prefetch per stage. The width is the
 * compile-time constant kInFlight (common/inflight.hh), not a
 * BatchConfig field: it matches the memory system's miss parallelism,
 * which no caller knows better.
 */

#ifndef EXMA_BATCH_BATCH_SEARCHER_HH
#define EXMA_BATCH_BATCH_SEARCHER_HH

#include <functional>
#include <vector>

#include "common/dna.hh"
#include "common/search_stats.hh"
#include "core/exma_table.hh"

namespace exma {

/**
 * Queries per slice of a one-participant run, and rows per locateRows
 * call in every run; the heartbeat (BatchConfig::progress) ticks
 * between slices. A constant, like kInFlight: a slice only has to be
 * long enough that ring fill and drain are rare, and short enough that
 * the heartbeat stays well inside a supervisor's hang timeout.
 */
inline constexpr u64 kLaneSlice = 4096;

struct BatchConfig
{
    /** Worker width: 0 = all hardware threads, 1 = sequential. */
    unsigned threads = 0;
    /**
     * Queries per dynamically claimed chunk of a pooled run
     * (parallelForSlots(threads) > 1). A one-participant run ignores
     * it and runs kLaneSlice-query slices.
     */
    u64 grain = 16;
    /**
     * Liveness hook: called after every kLaneSlice located rows and
     * once per completed chunk (a kLaneSlice-query slice with one
     * participant, `grain` queries when pooled), from whichever thread
     * ran it. ShardWorker points this at its heartbeat counter so the
     * WorkerSupervisor can tell a legitimately slow batch (heartbeat
     * advancing) from a hung one (heartbeat frozen). Must be cheap
     * and thread-safe; null = no calls.
     */
    std::function<void()> progress;
    /**
     * Also resolve each query's interval to global text positions
     * (BatchResult::positions, sorted ascending), as locateAllGlobal
     * does. This is what sharded serving needs: row intervals of
     * different shard tables are not comparable, text positions are.
     */
    bool locate = false;
    /**
     * Cap on located positions per query; 0 = unlimited. Every row of
     * an interval is located and the lowest `locate_limit` global
     * positions are kept (ExmaTable::locateAllGlobal), so the kept
     * subset does not depend on the index. ShardRouter::search applies
     * its cap after the cross-shard merge instead.
     */
    u64 locate_limit = 0;
};

/** Outcome of one batch: index-aligned with the input queries. */
struct BatchResult
{
    std::vector<Interval> intervals;
    std::vector<std::vector<u64>> positions; ///< iff cfg.locate (sorted)
    SearchStats stats;                       ///< summed over the batch
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
