/**
 * @file
 * The EXMA table (§IV.A, Fig. 8) — the paper's primary data structure —
 * bundled with its search engine: per-k-mer sorted increment lists with
 * base pointers and the MAX sentinel convention, Occ computed by exact
 * binary search (the default) or through a learned index (MTL or
 * naive, built in memory and never saved), k-step backward
 * search with a 1-step FM-Index remainder path, and measured CHAIN/B∆I
 * size accounting (Fig. 23).
 *
 * The search engine is staged. A backward search is a chain of
 * dependent random reads, so one search at a time waits on one cache
 * miss at a time. search(queries, ...) instead keeps kInFlight searches
 * in flight on the calling thread (common/inflight.hh) and visits them
 * round-robin; each visit resolves one memory stage, whose lines the
 * previous visit prefetched, and prefetches the next stage's:
 *
 *  1. k-step: the k-mer's base-pointer pair (KmerOccTable `bases`);
 *  2. k-step: its increment lines, read through that pair;
 *  3. k-step: stepKmer resolves the new interval (a modelled k-mer's
 *     learned lookup runs synchronously inside it), and the next
 *     stage 1 or 1-step is issued;
 *  - 1-step remainder: the PackedRank blocks of both interval ends,
 *    resolved by FmIndex::extend on the next visit.
 *
 * Results, and the stats summed over the batch, are identical to
 * running the queries one by one; the one-query search(query) is the
 * same engine with one search in flight. The width is a compile-time
 * constant rather than an option because it matches the memory
 * system's miss parallelism, which no caller knows better. Locating works the same way, as one
 * ring of LF walks over a list of rows (locateRows).
 *
 * Every table covers one slice of the reference (core/text_segments.hh):
 * a text shard's stride or record, or the whole reference [0, n), which
 * every shard of a kmerPrefix plan shares. Search intervals are local
 * to the slice, and hits are reported as global positions by adding the
 * slice's first position.
 */

#ifndef EXMA_CORE_EXMA_TABLE_HH
#define EXMA_CORE_EXMA_TABLE_HH

#include <memory>
#include <span>
#include <vector>

#include "common/dna.hh"
#include "common/search_stats.hh"
#include "core/text_segments.hh"
#include "fmindex/fm_index.hh"
#include "fmindex/kmer_occ.hh"
#include "learned/mtl_index.hh"
#include "learned/naive_kmer_index.hh"

namespace exma {

/** How Occ(k-mer, pos) lookups are resolved. */
enum class OccIndexMode
{
    Exact,        ///< binary search over increments (no model)
    NaiveLearned, ///< one learned hierarchy per k-mer (§IV.A)
    Mtl,          ///< shared multi-task-learning index (§IV.B)
};

class ExmaTable
{
  public:
    struct Config
    {
        int k = 11;
        OccIndexMode mode = OccIndexMode::Exact;
        MtlIndex::Config mtl;
        NaiveKmerIndex::Config naive;
    };

    /**
     * Build everything over the global slice @p slice of @p ref (suffix
     * array computed once and shared). The slice must fit the
     * reference; one that covers all of it is built in place, any
     * other from a copy of its bases.
     */
    ExmaTable(const std::vector<Base> &ref, TextSegment slice,
              const Config &cfg);

    /** Whole-reference build: the slice [0, n), with no copy of @p ref. */
    ExmaTable(const std::vector<Base> &ref, const Config &cfg);

    /**
     * Serialized parts of a whole table (src/io/table_io.cc): the exact
     * table and nothing learned. Restoring copies no hot array — those
     * stay borrowed from the mmap.
     */
    struct Parts
    {
        TextSegment slice;
        FmIndex::Restored fm;
        KmerOccTable::Restored occ;
    };

    /**
     * Restore from serialized parts as an Exact-mode table whose
     * config takes k from @p parts.occ.
     */
    explicit ExmaTable(Parts parts);

    const Config &config() const { return cfg_; }

    int k() const { return occ_->k(); }
    u64 rows() const { return occ_->rows(); }

    /** The paper's MAX sentinel: |G| + 1 (one past the last row). */
    u64 maxSentinel() const { return rows(); }

    OccIndexMode mode() const { return cfg_.mode; }
    const KmerOccTable &occTable() const { return *occ_; }
    const FmIndex &fmIndex() const { return *fm_; }

    /** Per-k-mer base pointer and occurrence count (Fig. 8). */
    u64 baseOf(Kmer code) const { return occ_->baseOf(code); }
    u64 frequency(Kmer code) const { return occ_->frequency(code); }

    /** Instrumented Occ(k-mer, pos) through the configured index. */
    IndexLookup occ(Kmer code, u64 pos) const;

    /** Count_k(P) — cumulative rows below P (tiny, cached in SRAM). */
    u64 countBefore(Kmer code) const { return occ_->countBefore(code); }

    /**
     * Aggregate search instrumentation for the timing models. Hoisted
     * to common/search_stats.hh so batched (multi-threaded) callers
     * can keep one per worker and merge; the nested name stays as an
     * alias for existing callers.
     */
    using SearchStats = exma::SearchStats;

    /** One k-step iteration (two Occ lookups sharing the k-mer). */
    Interval stepKmer(const Interval &iv, Kmer code,
                      SearchStats *stats = nullptr) const;

    /**
     * Full backward search; equals FmIndex::search on the same ref.
     * @p stats, if given, is added to (not overwritten). One query
     * through the staged engine below.
     */
    Interval search(const std::vector<Base> &query,
                    SearchStats *stats = nullptr) const;

    /**
     * The staged engine (see the file comment): search every query of
     * @p queries with up to kInFlight in flight, writing out[j] for
     * queries[j] and adding every query's counts to @p stats. Both
     * spans have the same length; a query may appear more than once.
     * Compiled as POPCNT and baseline clones, one picked per process
     * (EXMA_POPCNT_CLONES).
     */
    void search(std::span<const std::vector<Base> *const> queries,
                std::span<Interval> out, SearchStats &stats) const;

    /**
     * Local text positions of up to @p limit occurrences in a search
     * interval (via the FM-Index SA samples): the interval's first
     * @p limit rows, in row order. Serving paths use locateAllGlobal()
     * or locateRows() + globalHits() instead.
     */
    std::vector<u64>
    locateAll(const Interval &iv, u64 limit = ~u64{0}) const
    {
        return fm_->locateAll(iv, limit);
    }

    /**
     * Replace every row in @p rows with its local text position, on
     * one ring of LF walks (FmIndex::locateRows). Batched callers put
     * all the rows of many intervals on one ring, then finish each
     * interval's share with globalHits().
     */
    void locateRows(std::span<u64> rows) const { fm_->locateRows(rows); }

    /**
     * Finish one interval's located rows (local positions, any order)
     * as its hit list: moved to global coordinates and sorted
     * ascending. Every hit is kept; a cap is the router's, applied
     * after its cross-shard merge.
     */
    void globalHits(std::vector<u64> &located) const;

    /** The slice of the reference this table covers. */
    const TextSegment &slice() const { return slice_; }

    /**
     * Global text positions of all of a search interval's occurrences,
     * sorted ascending: locateAll(iv) finished by globalHits().
     * @p query_len is unused: a table holds no seam a match could
     * cross, so no hit is filtered.
     */
    std::vector<u64> locateAllGlobal(const Interval &iv,
                                     u64 query_len) const;

    /**
     * One recorded k-step iteration of a search, for the trace-driven
     * accelerator timing model: the functional layer computes what is
     * fetched; the timing layer replays when.
     */
    struct IterTrace
    {
        Kmer kmer = 0;
        u64 pos_low = 0;     ///< pointer values entering the iteration
        u64 pos_high = 0;
        IndexLookup low;     ///< instrumented Occ(k-mer, low)
        IndexLookup high;
        u64 base = 0;        ///< base pointer (for cache addressing)
    };

    /** Run a search and record every k-step iteration. */
    std::vector<IterTrace> traceSearch(const std::vector<Base> &query) const;

    /** Index parameter count (0 in Exact mode). */
    u64 indexParamCount() const;

    /** Measured component sizes, raw and CHAIN-compressed (Fig. 23). */
    struct SizeReport
    {
        u64 increments_raw = 0;
        u64 increments_chain = 0;
        u64 bases_raw = 0;
        u64 bases_chain = 0;
        u64 index_bytes = 0; ///< 8-bit-quantised parameters (Table I)
        u64 bwt_bytes = 0;   ///< residual 1-step BWT (3 bits/symbol)

        u64
        totalRaw() const
        {
            return increments_raw + bases_raw + index_bytes + bwt_bytes;
        }
        u64
        totalChain() const
        {
            return increments_chain + bases_chain + index_bytes + bwt_bytes;
        }
    };
    SizeReport sizeReport() const;

  private:
    void build(const std::vector<Base> &ref);

    Config cfg_;
    TextSegment slice_;
    std::unique_ptr<FmIndex> fm_;
    std::unique_ptr<KmerOccTable> occ_;
    std::unique_ptr<MtlIndex> mtl_;
    std::unique_ptr<NaiveKmerIndex> naive_;
};

} // namespace exma

#endif // EXMA_CORE_EXMA_TABLE_HH
