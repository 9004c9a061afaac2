#include "learned/mtl_index.hh"

#include "common/logging.hh"
#include "common/rng.hh"

namespace exma {

int
MtlIndex::classOf(u64 f)
{
    if (f == 0)
        return 0;
    if (f == 1)
        return 1;
    if (f <= 256)
        return 2;
    if (f <= 1024)
        return 3;
    if (f <= 4096)
        return 4;
    if (f <= 16384)
        return 5;
    if (f <= 65536)
        return 6;
    if (f <= 262144)
        return 7;
    if (f <= 1048576)
        return 8;
    return 9;
}

const char *
MtlIndex::className(int cls)
{
    static const char *names[kNumClasses] = {
        "0", "1", "2-256", "256-1K", "1K-4K", "4K-16K", "16K-64K",
        "64K-256K", "256K-1M", ">1M"};
    exma_assert(cls >= 0 && cls < kNumClasses, "bad class %d", cls);
    return names[cls];
}

MtlIndex::MtlIndex(const KmerOccTable &tab, const Config &cfg)
    : tab_(tab), cfg_(cfg)
{
    class_model_.fill(-1);
    inv_kmer_space_ = 1.0 / static_cast<double>(kmerSpace(tab.k()));
    inv_rows_ = 1.0 / static_cast<double>(tab.rows());

    // Pass 1: collect the modelled k-mers per class.
    const u64 space = kmerSpace(tab.k());
    std::array<std::vector<Kmer>, kNumClasses> members;
    for (Kmer m = 0; m < space; ++m) {
        const u64 f = tab.frequency(m);
        if (f > cfg.min_increments)
            members[static_cast<size_t>(classOf(f))].push_back(m);
    }

    // Pass 2: train one shared MLP per populated class across its
    // members (hard parameter sharing). Target: within-k-mer quantile,
    // so differently sized k-mers share the same output scale.
    Rng rng(cfg.seed);
    for (int cls = 0; cls < kNumClasses; ++cls) {
        auto &mem = members[static_cast<size_t>(cls)];
        if (mem.empty())
            continue;
        std::vector<Mlp::Sample> samples;
        samples.reserve(cfg.samples_per_class);
        for (u64 s = 0; s < cfg.samples_per_class; ++s) {
            const Kmer m = mem[rng.below(mem.size())];
            auto inc = tab_.increments(m);
            const u64 i = rng.below(inc.size());
            Mlp::Sample smp;
            smp.x0 = static_cast<double>(m) * inv_kmer_space_;
            smp.x1 = static_cast<double>(inc[i]) * inv_rows_;
            smp.y = static_cast<double>(i) /
                    static_cast<double>(inc.size());
            samples.push_back(smp);
        }
        Mlp mlp(2, cfg.hidden, cfg.seed + static_cast<u64>(cls));
        mlp.train(samples, cfg.epochs, cfg.lr);
        class_model_[static_cast<size_t>(cls)] =
            static_cast<int>(mlps_.size());
        mlps_.push_back(std::move(mlp));
    }

    // Pass 3: per-k-mer linear leaves, each increment assigned by the
    // shared root's own routing (so queries evaluate the leaf fitted on
    // their neighbourhood).
    std::vector<LeafMoments> acc;
    for (int cls = 0; cls < kNumClasses; ++cls) {
        for (const Kmer m : members[static_cast<size_t>(cls)]) {
            auto inc = tab_.increments(m);
            const u64 f = inc.size();
            const u64 n_leaves = (f + cfg.leaf_size - 1) / cfg.leaf_size;
            KmerLeaves kl;
            kl.first_leaf = static_cast<u32>(leaves_.size());
            kl.n_leaves = static_cast<u32>(n_leaves);
            kl.cls = cls;

            acc.assign(n_leaves, LeafMoments());
            const double x0 = static_cast<double>(m) * inv_kmer_space_;
            for (u64 i = 0; i < f; ++i) {
                const double x1 =
                    static_cast<double>(inc[i]) * inv_rows_;
                acc[routeLeaf(kl, x0, x1)].add(x1,
                                               static_cast<double>(i));
            }
            const std::vector<ClampedLeaf> solved = solveLeaves(acc);
            leaves_.insert(leaves_.end(), solved.begin(), solved.end());
            kmers_.emplace(m, kl);
        }
    }

    params_ = leaves_.size() * LinearModel::paramCount();
    for (const auto &mlp : mlps_)
        params_ += mlp.paramCount();
}

u64
MtlIndex::routeLeaf(const KmerLeaves &kl, double x0, double x1) const
{
    const Mlp &mlp = mlps_[static_cast<size_t>(
        class_model_[static_cast<size_t>(kl.cls)])];
    return leafOf(mlp.predict(x0, x1), kl.n_leaves);
}

IndexLookup
MtlIndex::occ(Kmer code, u64 pos) const
{
    // Only k-mers with more than min_increments occurrences were
    // modelled (constructor pass 1), so the common small-list case —
    // the vast majority of lookups on a genomic k-mer distribution —
    // takes the exact lookup without ever touching the model hash map.
    if (tab_.frequency(code) <= cfg_.min_increments)
        return tab_.occ(code, pos);
    const auto it = kmers_.find(code);
    exma_dassert(it != kmers_.end(),
                 "k-mer above the modelling threshold has no model");

    const KmerLeaves &kl = it->second;
    const double x1 = static_cast<double>(pos) * inv_rows_;
    const u64 leaf =
        routeLeaf(kl, static_cast<double>(code) * inv_kmer_space_, x1);
    const std::span<const u32> inc = tab_.increments(code);
    const u64 pred =
        clampRank(leaves_[kl.first_leaf + leaf].predict(x1), inc.size());

    IndexLookup out;
    out.rank =
        gallopLowerBound(inc, static_cast<u32>(pos), pred, out.probes);
    out.error = out.rank > pred ? out.rank - pred : pred - out.rank;
    out.used_model = true;
    out.leaf_id = kl.first_leaf + leaf;
    out.cls = kl.cls;
    return out;
}

} // namespace exma
