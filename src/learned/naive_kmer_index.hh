/**
 * @file
 * The "naive adoption of learned index" from §IV.A / Fig. 9(a): one
 * independent learned-index hierarchy per k-mer that has more than 256
 * increments, with a parameter budget that grows with the k-mer's
 * increment count (more leaves for more increments). K-mers at or below
 * the threshold fall back to binary search over their increments.
 */

#ifndef EXMA_LEARNED_NAIVE_KMER_INDEX_HH
#define EXMA_LEARNED_NAIVE_KMER_INDEX_HH

#include <unordered_map>

#include "common/dna.hh"
#include "common/search_stats.hh"
#include "fmindex/kmer_occ.hh"
#include "learned/rmi.hh"

namespace exma {

class NaiveKmerIndex
{
  public:
    struct Config
    {
        u64 min_increments = 256; ///< paper: model only if f > 256
        u64 leaf_size = 4096;
        int hidden = 10;
        int epochs = 30;
        u64 train_cap = 512;
        u64 seed = 7;
    };

    /**
     * Train over @p tab. The models live only in memory: index files
     * hold none (io/table_io.hh).
     */
    NaiveKmerIndex(const KmerOccTable &tab, const Config &cfg);

    /** Occ(k-mer, pos) via the per-k-mer model (or the exact lookup). */
    IndexLookup occ(Kmer code, u64 pos) const;

    /** Whether @p code has its own model hierarchy. */
    bool hasModel(Kmer code) const { return models_.count(code) > 0; }

    /** Total trainable parameters across all per-k-mer models. */
    u64 paramCount() const { return params_; }

    u64 modelCount() const { return models_.size(); }

  private:
    const KmerOccTable &tab_;
    Config cfg_;
    std::unordered_map<Kmer, Rmi<u32>> models_;
    u64 params_ = 0;
};

} // namespace exma

#endif // EXMA_LEARNED_NAIVE_KMER_INDEX_HH
