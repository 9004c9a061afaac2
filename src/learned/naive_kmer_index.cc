#include "learned/naive_kmer_index.hh"

namespace exma {

NaiveKmerIndex::NaiveKmerIndex(const KmerOccTable &tab, const Config &cfg)
    : tab_(tab), cfg_(cfg)
{
    const u64 space = kmerSpace(tab.k());
    for (Kmer m = 0; m < space; ++m) {
        const u64 f = tab.frequency(m);
        if (f <= cfg.min_increments)
            continue;
        Rmi<u32>::Config rc;
        rc.leaf_size = cfg.leaf_size;
        rc.mlp_root = true;
        rc.hidden = cfg.hidden;
        rc.epochs = cfg.epochs;
        rc.train_cap = cfg.train_cap;
        rc.seed = cfg.seed + m;
        auto &rmi = models_[m];
        rmi.build(tab.increments(m), rc);
        params_ += rmi.paramCount();
    }
}

IndexLookup
NaiveKmerIndex::occ(Kmer code, u64 pos) const
{
    // Modelled iff f > min_increments (constructor), so the short-list
    // majority skips the hash lookup and takes the exact lookup.
    if (tab_.frequency(code) <= cfg_.min_increments)
        return tab_.occ(code, pos);
    return models_.at(code).lookup(static_cast<u32>(pos));
}

} // namespace exma
