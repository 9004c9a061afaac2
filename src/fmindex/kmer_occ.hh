/**
 * @file
 * Occurrence table over k-symbol windows of the BW-matrix — the core of
 * the EXMA table (core/exma_table.hh), which is also the k-step
 * FM-Index: an Exact-mode table resolves every k-step with occ() below.
 *
 * For every BW-matrix row r, the "window" is the k symbols that precede
 * the suffix at r (circularly over ref·$). Occ_k(P, i) — the number of
 * rows below i whose window equals P — is exactly the rank of i in the
 * sorted list of rows where P occurs. The paper's EXMA table (Fig. 8)
 * stores precisely these sorted row lists ("increments"), one `base`
 * pointer per k-mer, and the per-k-mer occurrence count f_i.
 *
 * Windows containing the sentinel exist (there are exactly k of them,
 * since $ occurs once); they are kept separately because DNA queries can
 * never match them, but they must participate in the cumulative Count_k.
 *
 * occ() is the one exact Occ lookup: the Exact mode calls it for every
 * lookup, and both learned indexes for every k-mer they do not model.
 */

#ifndef EXMA_FMINDEX_KMER_OCC_HH
#define EXMA_FMINDEX_KMER_OCC_HH

#include <span>
#include <utility>
#include <vector>

#include "common/branchless.hh"
#include "common/dna.hh"
#include "common/search_stats.hh"
#include "common/storage.hh"
#include "common/types.hh"
#include "fmindex/suffix_array.hh"

namespace exma {

class KmerOccTable
{
  public:
    /**
     * Build from @p ref and its suffix array (of ref·$).
     * @param k number of DNA symbols per window (the "step").
     * The build cuts the rows into chunks, one below 2^16 rows and
     * otherwise as many as the global pool has slots (capped by a
     * histogram memory budget), and the table is identical whatever
     * the chunk count.
     */
    KmerOccTable(const std::vector<Base> &ref, const std::vector<SaIndex> &sa,
                 int k);

    /** Convenience constructor that builds its own suffix array. */
    KmerOccTable(const std::vector<Base> &ref, int k);

    /**
     * Serialized parts of a table (src/io/table_io.cc). On a load the
     * two hot arrays are borrowed straight from the mmap'd `.exma.occ`
     * file; the tiny sentinel arrays (k entries each) are owned copies.
     */
    struct Restored
    {
        int k = 0;
        u64 n_rows = 0;
        u64 distinct = 0;
        Storage<u32> bases;
        Storage<u32> rows;
        std::vector<std::pair<u64, u32>> sentinel_windows;
        std::vector<u64> sentinel_thresholds;
    };

    /** Restore from serialized parts; nothing is recomputed. */
    explicit KmerOccTable(Restored parts);

    int k() const { return k_; }

    /** Number of BW-matrix rows (|ref| + 1). */
    u64 rows() const { return n_rows_; }

    /**
     * Count_k(P): number of rows whose *first* k symbols are
     * lexicographically smaller than pure-DNA k-mer @p code
     * (sentinel-containing windows included, $ smallest).
     */
    u64 countBefore(Kmer code) const;

    /** Number of increments (occurrences) of k-mer @p code: f_i. */
    u64
    frequency(Kmer code) const
    {
        return bases_[code + 1] - bases_[code];
    }

    /** Sorted increment rows of k-mer @p code (paper Fig. 8 columns). */
    std::span<const u32>
    increments(Kmer code) const
    {
        return {rows_.data() + bases_[code],
                rows_.data() + bases_[code + 1]};
    }

    /**
     * Occ_k(P, row): the rank of @p row among the increments of
     * @p code, by branchless binary search, with that search's
     * worst-case probe count. The model fields stay at their defaults.
     */
    IndexLookup
    occ(Kmer code, u64 row) const
    {
        const std::span<const u32> inc = increments(code);
        IndexLookup out;
        out.rank = lowerBoundRank(inc, static_cast<u32>(row));
        out.probes = probeCount(inc.size());
        return out;
    }

    /** Offset of the first increment of @p code — the EXMA `base`. */
    u64 baseOf(Kmer code) const { return bases_[code]; }

    /**
     * Staged-search hook, k-step stage 1: hint into cache the
     * base-pointer pair that increments(@p code) and countBefore(@p
     * code) read.
     */
    void
    prefetchBases(Kmer code) const
    {
        prefetchRead(bases_.data() + code);
        prefetchRead(bases_.data() + code + 1);
    }

    /**
     * Staged-search hook, k-step stage 2: hint into cache the lines an
     * Occ lookup into @p inc (an increments() span) reads first: its
     * first and last entries, which cover the whole list for the short
     * lists most k-mers have, and the binary search's first probe.
     */
    static void
    prefetchIncrements(std::span<const u32> inc)
    {
        if (inc.empty())
            return;
        prefetchRead(inc.data());
        prefetchRead(inc.data() + inc.size() / 2);
        prefetchRead(inc.data() + inc.size() - 1);
    }

    /** Concatenated increments of all pure-DNA k-mers. */
    std::span<const u32> allIncrements() const { return rows_.span(); }

    /** The raw base-offset array (4^k + 1 entries, non-decreasing). */
    std::span<const u32> baseArray() const { return bases_.span(); }

    /** Sentinel-containing windows, sorted by code (serialization). */
    const std::vector<std::pair<u64, u32>> &
    sentinelWindows() const
    {
        return sentinel_windows_;
    }

    /** Per-window pure-code thresholds, ascending (serialization). */
    const std::vector<u64> &
    sentinelThresholds() const
    {
        return sentinel_thresholds_;
    }

    /** Number of distinct pure-DNA k-mers that occur at least once. */
    u64 distinctKmers() const { return distinct_; }

    /** Approximate heap footprint. */
    u64 sizeBytes() const;

  private:
    void build(const std::vector<Base> &ref, const std::vector<SaIndex> &sa);

    int k_;
    u64 n_rows_ = 0;
    u64 distinct_ = 0;
    Storage<u32> bases_; ///< 4^k + 1 prefix offsets into rows_
    Storage<u32> rows_;  ///< concatenated sorted increment rows
    /** Sentinel-containing windows: (base-5 code, row), sorted by code. */
    std::vector<std::pair<u64, u32>> sentinel_windows_;
    /**
     * Per sentinel window: the smallest pure k-mer code sorting above
     * it (4^k if none), ascending. countBefore() counts `t <= code`
     * over this tiny array instead of re-deriving the query's base-5
     * code on every k-step iteration.
     */
    std::vector<u64> sentinel_thresholds_;
};

} // namespace exma

#endif // EXMA_FMINDEX_KMER_OCC_HH
