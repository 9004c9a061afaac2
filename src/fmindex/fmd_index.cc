#include "fmindex/fmd_index.hh"

#include <algorithm>

#include "common/logging.hh"
#include "fmindex/suffix_array.hh"

namespace exma {
namespace {

/** Complement in BWT coding: $ and # are self-complementary. */
inline u8
compSym(u8 sym)
{
    return sym >= 2 ? static_cast<u8>(7 - sym) : sym;
}

} // namespace

FmdIndex::FmdIndex(const std::vector<Base> &ref) : n_(ref.size())
{
    exma_assert(!ref.empty(), "empty reference");

    // T'' = T # revcomp(T); generic SA builder appends the $ sentinel.
    // Symbol values before the builder's +1 shift: # = 0, A..T = 1..4.
    std::vector<u8> text;
    text.reserve(2 * n_ + 1);
    for (Base b : ref)
        text.push_back(static_cast<u8>(b + 1));
    text.push_back(0); // separator '#'
    for (u64 i = n_; i-- > 0;)
        text.push_back(static_cast<u8>(complementBase(ref[i]) + 1));

    std::vector<SaIndex> sa = buildSuffixArrayGeneric(text, 5);
    n_rows_ = sa.size(); // 2n + 2

    // BWT over the 6-symbol alphabet ($=0, #=1, A..T=2..5).
    bwt_.resize(n_rows_);
    for (u64 i = 0; i < n_rows_; ++i) {
        const u64 pos = sa[i];
        const u64 prev = pos == 0 ? n_rows_ - 1 : pos - 1;
        bwt_[i] = prev == n_rows_ - 1
                      ? 0
                      : static_cast<u8>(text[prev] + 1);
    }

    u64 totals[kSigma] = {};
    for (u8 sym : bwt_)
        ++totals[sym];
    count_[0] = 0;
    for (int c = 1; c <= kSigma; ++c)
        count_[c] = count_[c - 1] + totals[c - 1];

    const u64 n_buckets = (n_rows_ + kOccSample - 1) / kOccSample;
    occ_ckpt_.assign((n_buckets + 1) * kSigma, 0);
    u32 running[kSigma] = {};
    for (u64 i = 0; i < n_rows_; ++i) {
        if (i % kOccSample == 0) {
            const u64 b = i / kOccSample;
            for (int c = 0; c < kSigma; ++c)
                occ_ckpt_[b * kSigma + static_cast<u64>(c)] = running[c];
        }
        ++running[bwt_[i]];
    }
    for (int c = 0; c < kSigma; ++c)
        occ_ckpt_[n_buckets * kSigma + static_cast<u64>(c)] = running[c];

    sa_sampled_ = BitVector(n_rows_);
    std::vector<std::pair<u64, u32>> marks;
    for (u64 i = 0; i < n_rows_; ++i)
        if (sa[i] % kSaSample == 0)
            marks.emplace_back(i, sa[i]);
    for (const auto &[row, val] : marks)
        sa_sampled_.set(row);
    sa_sampled_.buildRank();
    sa_values_.resize(marks.size());
    for (const auto &[row, val] : marks)
        sa_values_[sa_sampled_.rank1(row)] = val;
}

void
FmdIndex::occ6(u64 i, u64 out[kSigma]) const
{
    const u64 bucket = i / kOccSample;
    for (int c = 0; c < kSigma; ++c)
        out[c] = occ_ckpt_[bucket * kSigma + static_cast<u64>(c)];
    for (u64 j = bucket * kOccSample; j < i; ++j)
        ++out[bwt_[j]];
}

u64
FmdIndex::occ1(u8 sym, u64 i) const
{
    const u64 bucket = i / kOccSample;
    u64 r = occ_ckpt_[bucket * kSigma + sym];
    for (u64 j = bucket * kOccSample; j < i; ++j)
        r += (bwt_[j] == sym);
    return r;
}

u64
FmdIndex::lf(u64 row) const
{
    const u8 sym = bwt_[row];
    return count_[sym] + occ1(sym, row);
}

BiInterval
FmdIndex::initInterval(Base c) const
{
    const u8 sym = static_cast<u8>(c + 2);
    const u8 csym = compSym(sym);
    return BiInterval{count_[sym], count_[csym],
                      count_[sym + 1] - count_[sym]};
}

BiInterval
FmdIndex::backwardExt(const BiInterval &bi, Base c) const
{
    const u8 sym = static_cast<u8>(c + 2);
    u64 lo[kSigma], hi[kSigma];
    occ6(bi.x, lo);
    occ6(bi.x + bi.s, hi);

    u64 t[kSigma];
    for (int b = 0; b < kSigma; ++b)
        t[b] = hi[b] - lo[b];

    BiInterval out;
    out.x = count_[sym] + lo[sym];
    out.s = t[sym];
    // Reverse interval: rows [rx, rx+s) share the prefix revcomp(W) and
    // are grouped by the symbol y that follows it, in alphabet order;
    // the group for y has size t[comp(y)] (strand symmetry). Prepending
    // c selects the group y = comp(c).
    const u8 target = compSym(sym);
    u64 acc = 0;
    for (u8 y = 0; y < target; ++y)
        acc += t[compSym(y)];
    out.rx = bi.rx + acc;
    return out;
}

BiInterval
FmdIndex::forwardExt(const BiInterval &bi, Base c) const
{
    BiInterval swapped{bi.rx, bi.x, bi.s};
    BiInterval ext = backwardExt(swapped, complementBase(c));
    return BiInterval{ext.rx, ext.x, ext.s};
}

u64
FmdIndex::countOccurrences(const std::vector<Base> &w) const
{
    if (w.empty())
        return 0;
    BiInterval bi = initInterval(w.back());
    for (size_t i = w.size() - 1; i-- > 0;) {
        bi = backwardExt(bi, w[i]);
        if (bi.empty())
            return 0;
    }
    return bi.s;
}

int
FmdIndex::smem1(const std::vector<Base> &q, int x0, u64 min_intv,
                std::vector<Smem> &out) const
{
    const int len = static_cast<int>(q.size());
    struct Cand
    {
        BiInterval bi;
        int qe;
    };

    // Forward sweep: grow [x0, i) as far as possible, recording the
    // interval each time the occurrence count drops.
    std::vector<Cand> curr, prev;
    BiInterval ik = initInterval(q[static_cast<size_t>(x0)]);
    int ik_end = x0 + 1;
    for (int i = x0 + 1; i < len; ++i) {
        BiInterval ok = forwardExt(ik, q[static_cast<size_t>(i)]);
        if (ok.s != ik.s) {
            curr.push_back({ik, i});
            if (ok.s < min_intv)
                break;
        }
        ik = ok;
        ik_end = i + 1;
        if (i == len - 1)
            curr.push_back({ik, len});
    }
    if (x0 == len - 1)
        curr.push_back({ik, len});
    if (curr.empty())
        curr.push_back({ik, ik_end});
    std::reverse(curr.begin(), curr.end()); // longest (largest qe) first
    const int ret = curr.front().qe;
    prev.swap(curr);

    // Backward sweep: repeatedly prepend q[i]; report an interval when
    // it cannot be extended left and no longer match survived.
    for (int i = x0 - 1; i >= -1; --i) {
        curr.clear();
        for (const Cand &p : prev) {
            BiInterval ok;
            if (i >= 0)
                ok = backwardExt(p.bi, q[static_cast<size_t>(i)]);
            if (i < 0 || ok.s < min_intv) {
                if (curr.empty() &&
                    (out.empty() || i + 1 < out.back().qb)) {
                    out.push_back(Smem{i + 1, p.qe, p.bi});
                }
            } else if (curr.empty() || ok.s != curr.back().bi.s) {
                curr.push_back({ok, p.qe});
            }
        }
        if (curr.empty())
            break;
        prev.swap(curr);
    }
    return ret;
}

std::vector<Smem>
FmdIndex::collectSmems(const std::vector<Base> &query, int min_len,
                       u64 min_intv) const
{
    std::vector<Smem> all;
    const int len = static_cast<int>(query.size());
    int x = 0;
    std::vector<Smem> batch;
    while (x < len) {
        batch.clear();
        const int next = smem1(query, x, std::max<u64>(min_intv, 1), batch);
        for (const Smem &m : batch)
            if (m.length() >= min_len)
                all.push_back(m);
        x = std::max(next, x + 1);
    }

    // Enforce SMEM semantics across pivots: sort by begin and drop any
    // interval nested inside another.
    std::sort(all.begin(), all.end(), [](const Smem &a, const Smem &b) {
        if (a.qb != b.qb)
            return a.qb < b.qb;
        return a.qe > b.qe;
    });
    std::vector<Smem> result;
    int max_end = -1;
    for (const Smem &m : all) {
        if (m.qe > max_end) {
            result.push_back(m);
            max_end = m.qe;
        }
    }
    return result;
}

std::vector<FmdIndex::HitPos>
FmdIndex::locate(const Smem &m, u64 limit) const
{
    std::vector<HitPos> out;
    const u64 match_len = static_cast<u64>(m.length());
    for (u64 row = m.bi.x; row < m.bi.x + m.bi.s && out.size() < limit;
         ++row) {
        u64 r = row, steps = 0;
        while (!sa_sampled_.get(r)) {
            r = lf(r);
            ++steps;
        }
        const u64 pos = sa_values_[sa_sampled_.rank1(r)] + steps;
        HitPos hp;
        if (pos < n_) {
            hp.pos = pos;
            hp.is_rc = false;
        } else {
            // Occurrence inside revcomp(T): map back to forward strand.
            const u64 rc_off = pos - (n_ + 1);
            hp.pos = n_ - rc_off - match_len;
            hp.is_rc = true;
        }
        out.push_back(hp);
    }
    return out;
}

u64
FmdIndex::sizeBytes() const
{
    return bwt_.size() + occ_ckpt_.size() * 4 + sizeof(count_) +
           sa_sampled_.sizeBytes() + sa_values_.size() * 4;
}

} // namespace exma
