#include "lisa/ip_bwt.hh"

#include <algorithm>

#include "common/logging.hh"

namespace exma {

IpBwt::IpBwt(const std::vector<Base> &ref, const std::vector<SaIndex> &sa,
             int k)
    : k_(k)
{
    build(ref, sa);
}

IpBwt::IpBwt(const std::vector<Base> &ref, int k)
    : k_(k)
{
    build(ref, buildSuffixArray(ref));
}

void
IpBwt::build(const std::vector<Base> &ref, const std::vector<SaIndex> &sa)
{
    exma_assert(k_ >= 1 && k_ <= kMaxKmerLen, "k=%d out of range", k_);
    const u64 n = ref.size();
    n_rows_ = n + 1;
    exma_assert(sa.size() == n_rows_, "suffix array size mismatch");

    // Inverse suffix array: text position -> row.
    std::vector<u32> isa(n_rows_);
    for (u64 i = 0; i < n_rows_; ++i)
        isa[sa[i]] = static_cast<u32>(i);

    kmer5_.resize(n_rows_);
    n_.resize(n_rows_);
    for (u64 i = 0; i < n_rows_; ++i) {
        const u64 pos = sa[i];
        u64 code = 0;
        for (int j = 0; j < k_; ++j) {
            const u64 idx = (pos + static_cast<u64>(j)) % n_rows_;
            const u64 sym = idx == n ? 0 : static_cast<u64>(ref[idx]) + 1;
            code = code * 5 + sym;
        }
        kmer5_[i] = code;
        n_[i] = isa[(pos + static_cast<u64>(k_)) % n_rows_];
    }
}

u64
IpBwt::lowerBound(u64 code5, u64 pos) const
{
    u64 lo = 0, hi = n_rows_;
    while (lo < hi) {
        const u64 mid = lo + (hi - lo) / 2;
        const bool less = kmer5_[mid] < code5 ||
                          (kmer5_[mid] == code5 && n_[mid] < pos);
        if (less)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

u64
IpBwt::padLow(const Base *syms, int len) const
{
    u64 code = 0;
    for (int j = 0; j < k_; ++j) {
        const u64 sym = j < len ? static_cast<u64>(syms[j]) + 1 : 0;
        code = code * 5 + sym;
    }
    return code;
}

u64
IpBwt::padHigh(const Base *syms, int len) const
{
    u64 code = 0;
    for (int j = 0; j < k_; ++j) {
        const u64 sym = j < len ? static_cast<u64>(syms[j]) + 1 : 4;
        code = code * 5 + sym;
    }
    return code;
}

u64
IpBwt::code5Of(const Base *syms) const
{
    u64 code = 0;
    for (int j = 0; j < k_; ++j)
        code = code * 5 + static_cast<u64>(syms[j]) + 1;
    return code;
}

Interval
IpBwt::search(const std::vector<Base> &query) const
{
    return searchWith(query, [this](u64 code5, u64 pos) {
        return lowerBound(code5, pos);
    });
}

} // namespace exma
