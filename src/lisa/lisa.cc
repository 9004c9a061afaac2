#include "lisa/lisa.hh"

#include <algorithm>

#include "common/logging.hh"

namespace exma {

Lisa::Lisa(const IpBwt &ipbwt, const Config &cfg)
    : ipbwt_(ipbwt), cfg_(cfg)
{
    group_syms_ = std::min(cfg.group_symbols, ipbwt.k());
    tail_space_ = 1;
    for (int j = 0; j < ipbwt.k() - group_syms_; ++j)
        tail_space_ *= 5;

    // Partition the sorted IP-BWT by k-mer prefix. Groups are contiguous
    // because entries are sorted by (k-mer, N).
    const u64 n = ipbwt.rows();
    u64 begin = 0;
    while (begin < n) {
        const u64 prefix = ipbwt.kmer5(begin) / tail_space_;
        u64 end = begin + 1;
        while (end < n && ipbwt.kmer5(end) / tail_space_ == prefix)
            ++end;
        Group g;
        g.begin = begin;
        g.end = end;
        g.keys.reserve(end - begin);
        for (u64 i = begin; i < end; ++i) {
            const u64 tail = ipbwt.kmer5(i) % tail_space_;
            g.keys.push_back(tail * n + ipbwt.pairedRow(i));
        }
        Rmi<u64>::Config rc;
        rc.leaf_size = cfg.leaf_size;
        rc.mlp_root = cfg.epochs > 0;
        rc.epochs = cfg.epochs;
        rc.seed = cfg.seed + prefix;
        g.rmi.build(g.keys, rc);
        params_ += g.rmi.paramCount();
        groups_.emplace(prefix, std::move(g));
        begin = end;
    }
}

u64
Lisa::lowerBoundLearned(u64 code5, u64 pos, LisaStats *stats) const
{
    const u64 n = ipbwt_.rows();
    const u64 prefix = code5 / tail_space_;
    auto it = groups_.find(prefix);
    if (it == groups_.end()) {
        // No entry shares this prefix; fall back to binary search over
        // the whole array (counts as one full-depth probe set).
        if (stats) {
            ++stats->iterations;
            stats->total_probes += 24;
        }
        return ipbwt_.lowerBound(code5, pos);
    }
    const Group &g = it->second;
    const u64 key = (code5 % tail_space_) * n + pos;
    const IndexLookup r = g.rmi.lookup(key);
    if (stats) {
        ++stats->iterations;
        stats->total_error += r.error;
        stats->total_probes += r.probes;
        stats->error_samples.push_back(static_cast<double>(r.error));
    }
    return g.begin + r.rank;
}

Interval
Lisa::search(const std::vector<Base> &query, LisaStats *stats) const
{
    return ipbwt_.searchWith(query, [&](u64 code5, u64 pos) {
        return lowerBoundLearned(code5, pos, stats);
    });
}

} // namespace exma
