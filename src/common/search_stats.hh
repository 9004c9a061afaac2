/**
 * @file
 * Search instrumentation shared by the Occ lookups, the EXMA table's
 * search engine and their timing models.
 *
 * An IndexLookup is one instrumented Occ lookup: the exact rank plus
 * what resolving it cost. KmerOccTable::occ, the one exact lookup,
 * fills the rank and its worst-case probe count; a learned index
 * (MtlIndex, or an Rmi as in NaiveKmerIndex and LISA) adds its
 * misprediction and model fields.
 *
 * A SearchStats sums those over a search. It is a plain per-call value
 * object — callers own one per search (or one per worker thread in a
 * batched run) and merge with operator+=, so the search engine itself
 * stays const and freely shareable across threads.
 */

#ifndef EXMA_COMMON_SEARCH_STATS_HH
#define EXMA_COMMON_SEARCH_STATS_HH

#include "common/types.hh"

namespace exma {

/** Result of one instrumented Occ(k-mer, pos) lookup. */
struct IndexLookup
{
    u64 rank = 0;       ///< exact Occ(k-mer, pos)
    u64 error = 0;      ///< model misprediction in entries
    u64 probes = 0;     ///< comparisons to resolve the rank
    bool used_model = false;
    u64 leaf_id = 0;    ///< global leaf index (cache addressing)
    int cls = -1;       ///< increment-count class (MTL only)
};

struct SearchStats
{
    u64 kstep_iterations = 0;   ///< k-symbol Occ-pair iterations
    u64 onestep_iterations = 0; ///< remainder 1-symbol iterations
    u64 total_error = 0;        ///< summed index misprediction distance
    u64 total_probes = 0;       ///< summed local-search probes
    u64 model_lookups = 0;      ///< Occ lookups resolved by a model

    SearchStats &
    operator+=(const SearchStats &o)
    {
        kstep_iterations += o.kstep_iterations;
        onestep_iterations += o.onestep_iterations;
        total_error += o.total_error;
        total_probes += o.total_probes;
        model_lookups += o.model_lookups;
        return *this;
    }

    friend SearchStats
    operator+(SearchStats a, const SearchStats &b)
    {
        a += b;
        return a;
    }

    bool operator==(const SearchStats &) const = default;

    void reset() { *this = SearchStats{}; }

    /** Mean misprediction distance per Occ lookup (2 per k-step). */
    double
    meanError() const
    {
        const u64 lookups = 2 * kstep_iterations;
        return lookups ? static_cast<double>(total_error) /
                             static_cast<double>(lookups)
                       : 0.0;
    }
};

} // namespace exma

#endif // EXMA_COMMON_SEARCH_STATS_HH
