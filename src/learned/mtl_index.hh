/**
 * @file
 * The multi-task-learning index of §IV.B / Fig. 9(b): k-mers are grouped
 * into increment-count classes; each class shares one non-leaf MLP
 * (hard parameter sharing) that takes both the k-mer and the position as
 * inputs and routes to per-k-mer linear-regression leaves. Sharing the
 * non-leaf nodes frees parameter budget, which buys finer leaf
 * granularity than the naive index — the mechanism behind the paper's
 * "higher accuracy with fewer parameters" claim (Stein's paradox
 * argument, Fig. 13).
 */

#ifndef EXMA_LEARNED_MTL_INDEX_HH
#define EXMA_LEARNED_MTL_INDEX_HH

#include <array>
#include <unordered_map>
#include <vector>

#include "common/dna.hh"
#include "common/search_stats.hh"
#include "fmindex/kmer_occ.hh"
#include "learned/mlp.hh"
#include "learned/rmi.hh"

namespace exma {

class MtlIndex
{
  public:
    /** Increment-count classes, mirroring Fig. 12's x-axis. */
    static constexpr int kNumClasses = 10;

    struct Config
    {
        u64 min_increments = 256; ///< at or below: the exact lookup
        u64 leaf_size = 512;      ///< finer than naive (shared budget)
        int hidden = 10;
        int epochs = 80;
        u64 samples_per_class = 8192;
        double lr = 0.05;
        u64 seed = 9;
    };

    /** Leaf range + class of one modelled k-mer. */
    struct KmerLeaves
    {
        u32 first_leaf = 0;
        u32 n_leaves = 0;
        int cls = 0;
    };

    /**
     * Train over @p tab. The index lives only in memory: index files
     * hold no model (io/table_io.hh).
     */
    MtlIndex(const KmerOccTable &tab, const Config &cfg);

    /** Occ(k-mer, pos) via the shared-class model (or the exact lookup). */
    IndexLookup occ(Kmer code, u64 pos) const;

    /** Shared-MLP + leaf parameters across all classes/k-mers. */
    u64 paramCount() const { return params_; }

    /** Class id of a k-mer with @p f increments (Fig. 12 buckets). */
    static int classOf(u64 f);

    /** Human-readable class label, e.g.\ "64K-256K". */
    static const char *className(int cls);

    bool hasModel(Kmer code) const { return kmers_.count(code) > 0; }

  private:
    /** Shared-root leaf routing, identical at build and query time. */
    u64 routeLeaf(const KmerLeaves &kl, double x0, double x1) const;

    const KmerOccTable &tab_;
    Config cfg_;
    std::array<int, kNumClasses> class_model_; ///< index into mlps_, -1
    std::vector<Mlp> mlps_;                    ///< one per populated class
    std::vector<ClampedLeaf> leaves_;          ///< all k-mers, contiguous
    std::unordered_map<Kmer, KmerLeaves> kmers_;
    u64 params_ = 0;
    double inv_kmer_space_ = 0.0;
    double inv_rows_ = 0.0;
};

} // namespace exma

#endif // EXMA_LEARNED_MTL_INDEX_HH
