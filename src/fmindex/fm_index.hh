/**
 * @file
 * Classic 1-step FM-Index over a DNA reference: BWT + sampled Occ
 * buckets + Count array + sampled suffix array for locate.
 *
 * BWT symbol coding: $ = 0, A..T = 1..4. The BW-matrix has |ref|+1 rows
 * (the sentinel suffix is row 0). Backward search maintains a half-open
 * interval [low, high) of rows whose suffixes start with the current
 * query suffix — exactly the algorithm in Fig. 3(d) of the paper.
 */

#ifndef EXMA_FMINDEX_FM_INDEX_HH
#define EXMA_FMINDEX_FM_INDEX_HH

#include <span>
#include <vector>

#include "common/bitvector.hh"
#include "common/dna.hh"
#include "common/storage.hh"
#include "common/types.hh"
#include "fmindex/packed_rank.hh"
#include "fmindex/suffix_array.hh"

namespace exma {

/** A half-open row interval of the BW-matrix. */
struct Interval
{
    u64 low = 0;
    u64 high = 0;

    bool empty() const { return high <= low; }
    u64 count() const { return empty() ? 0 : high - low; }
    bool operator==(const Interval &o) const = default;
};

/**
 * Optional per-iteration trace of a backward search, used to reproduce
 * Fig. 6(a) (the random Occ-access pattern of 1-step FM-Index).
 */
struct SearchTrace
{
    /**
     * Occ blocks touched, two per iteration: each interval end's row
     * divided by PackedRank::kBlockSymbols.
     */
    std::vector<u64> occ_rows;
};

class FmIndex
{
  public:
    /**
     * Text-position stride of the SA samples: a row is sampled iff its
     * suffix starts at a multiple of it, so a locate walk takes fewer
     * than kSaSample LF steps.
     */
    static constexpr u32 kSaSample = 32;

    /** Build from a DNA reference (0..3 codes). */
    explicit FmIndex(const std::vector<Base> &ref);

    /** Build reusing an already-computed suffix array of ref·$. */
    FmIndex(const std::vector<Base> &ref, const std::vector<SaIndex> &sa);

    /**
     * Serialized parts of an index (src/io/table_io.cc). On a load the
     * array-backed members are borrowed straight from the mmap'd
     * `.exma.sa` file; nothing is recomputed.
     */
    struct Restored
    {
        u64 n_rows = 0;
        u64 count[kBwtAlphabet + 1] = {};
        PackedRank rank;
        BitVector sa_sampled;
        Storage<u32> sa_values;
    };

    /** Restore from serialized parts. */
    explicit FmIndex(Restored parts);

    /** Number of BW-matrix rows (|ref| + 1). */
    u64 size() const { return n_rows_; }

    /** The whole-matrix interval (initial search state). */
    Interval fullInterval() const { return {0, n_rows_}; }

    /** Count(s): number of BWT symbols lexicographically below @p sym. */
    u64 count(u8 sym) const { return count_[sym]; }

    /**
     * Occ(s, i): occurrences of @p sym in BWT[0, i). sym is 0..4.
     * One 32-byte packed-rank block per resolution (see packed_rank.hh).
     */
    u64 occ(u8 sym, u64 i) const { return rank_.occ(sym, i); }

    /**
     * One backward-search step: prepend base @p c (0..3) to the match.
     * Inline so the staged search's clones (EXMA_POPCNT_CLONES) each
     * compile its two rank lookups for their own ISA.
     */
    Interval
    extend(const Interval &iv, Base c) const
    {
        const u8 sym = static_cast<u8>(c + 1);
        return Interval{count_[sym] + occ(sym, iv.low),
                        count_[sym] + occ(sym, iv.high)};
    }

    /** Full backward search of @p query; optional access trace. */
    Interval search(const std::vector<Base> &query,
                    SearchTrace *trace = nullptr) const;

    /** BWT symbol at row (0..4). */
    u8 bwtAt(u64 row) const { return rank_.symAt(row); }

    /** LF mapping: row of the suffix one position earlier in the text. */
    u64 lf(u64 row) const;

    /** Text position of the suffix at @p row: a one-row locateRows. */
    u64 locate(u64 row) const;

    /**
     * Positions of the first @p limit rows of an interval, in row
     * order: the rows, located on one ring (locateRows).
     */
    std::vector<u64> locateAll(const Interval &iv, u64 limit = ~u64{0}) const;

    /**
     * Replace every row in @p rows with its text position. Each row is
     * one LF walk to the nearest SA sample; kInFlight walks advance
     * round-robin, each visit taking one LF step and prefetching the
     * next row's rank block and SA-sample word (or, at a sampled row,
     * the sample value), and a finished walk's slot takes the next row.
     * Results do not depend on the order. Compiled as POPCNT and
     * baseline clones, one picked per process (EXMA_POPCNT_CLONES).
     */
    void locateRows(std::span<u64> rows) const;

    /** Approximate heap footprint. */
    u64 sizeBytes() const;

    /** The rank structure (serialization). */
    const PackedRank &packedRank() const { return rank_; }

    /** The sampled-row bit vector (serialization). */
    const BitVector &saSampled() const { return sa_sampled_; }

    /** The rank-indexed SA sample values (serialization). */
    std::span<const u32> saValues() const { return sa_values_.span(); }

    /** The cumulative Count array, kBwtAlphabet+1 entries. */
    std::span<const u64> countArray() const { return {count_, kBwtAlphabet + 1}; }

  private:
    void build(const std::vector<Base> &ref, const std::vector<SaIndex> &sa);

    u64 n_rows_ = 0;
    PackedRank rank_; ///< 2-bit BWT + interleaved Occ checkpoints
    u64 count_[kBwtAlphabet + 1] = {};
    BitVector sa_sampled_;    ///< rows with a sampled SA value
    Storage<u32> sa_values_; ///< sampled values, rank-indexed
};

} // namespace exma

#endif // EXMA_FMINDEX_FM_INDEX_HH
