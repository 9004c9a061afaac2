#include "fmindex/fm_index.hh"

#include <algorithm>
#include <numeric>

#include "common/branchless.hh"
#include "common/inflight.hh"
#include "common/logging.hh"

namespace exma {

FmIndex::FmIndex(const std::vector<Base> &ref)
{
    build(ref, buildSuffixArray(ref));
}

FmIndex::FmIndex(const std::vector<Base> &ref, const std::vector<SaIndex> &sa)
{
    build(ref, sa);
}

FmIndex::FmIndex(Restored parts)
    : n_rows_(parts.n_rows),
      rank_(std::move(parts.rank)),
      sa_sampled_(std::move(parts.sa_sampled)),
      sa_values_(std::move(parts.sa_values))
{
    exma_assert(rank_.size() == n_rows_,
                "fm restore: rank covers %llu rows, header says %llu",
                (unsigned long long)rank_.size(),
                (unsigned long long)n_rows_);
    exma_assert(sa_sampled_.size() == n_rows_,
                "fm restore: SA-sample bitvector size mismatch");
    exma_assert(sa_values_.size() == sa_sampled_.ones(),
                "fm restore: %llu SA values for %llu sampled rows",
                (unsigned long long)sa_values_.size(),
                (unsigned long long)sa_sampled_.ones());
    for (int c = 0; c <= kBwtAlphabet; ++c)
        count_[c] = parts.count[c];
    exma_assert(count_[kBwtAlphabet] == n_rows_,
                "fm restore: Count array does not sum to the row count");
}

void
FmIndex::build(const std::vector<Base> &ref, const std::vector<SaIndex> &sa)
{
    const u64 n = ref.size();
    n_rows_ = n + 1;
    exma_assert(sa.size() == n_rows_, "suffix array size mismatch");

    // BWT: symbol preceding each suffix; the sentinel precedes suffix 0.
    // Materialised briefly in byte form, then packed into the 2-bit
    // interleaved-checkpoint rank blocks (the byte copy is dropped).
    std::vector<u8> bwt(n_rows_);
    for (u64 i = 0; i < n_rows_; ++i) {
        const u64 pos = sa[i];
        bwt[i] = pos == 0 ? u8{0} : static_cast<u8>(ref[pos - 1] + 1);
    }
    rank_ = PackedRank(bwt);

    // Symbol totals -> Count array (cumulative over $,A,C,G,T).
    count_[0] = 0;
    for (int c = 1; c <= kBwtAlphabet; ++c)
        count_[c] = count_[c - 1] + rank_.occ(static_cast<u8>(c - 1),
                                              n_rows_);

    // Text-position-sampled SA: mark rows whose SA value is a multiple
    // of kSaSample so every LF-walk terminates within kSaSample steps.
    sa_sampled_ = BitVector(n_rows_);
    std::vector<std::pair<u64, u32>> marks;
    for (u64 i = 0; i < n_rows_; ++i)
        if (sa[i] % kSaSample == 0)
            marks.emplace_back(i, sa[i]);
    for (const auto &[row, val] : marks)
        sa_sampled_.set(row);
    sa_sampled_.buildRank();
    std::vector<u32> sa_values(marks.size());
    for (const auto &[row, val] : marks)
        sa_values[sa_sampled_.rank1(row)] = val;
    sa_values_ = Storage<u32>(std::move(sa_values));
}

Interval
FmIndex::search(const std::vector<Base> &query, SearchTrace *trace) const
{
    Interval iv = fullInterval();
    for (size_t i = query.size(); i-- > 0;) {
        if (trace) {
            trace->occ_rows.push_back(iv.low / PackedRank::kBlockSymbols);
            trace->occ_rows.push_back(iv.high / PackedRank::kBlockSymbols);
        }
        iv = extend(iv, query[i]);
        if (iv.empty())
            return Interval{iv.low, iv.low};
    }
    return iv;
}

u64
FmIndex::lf(u64 row) const
{
    const u8 sym = rank_.symAt(row);
    return count_[sym] + occ(sym, row);
}

u64
FmIndex::locate(u64 row) const
{
    locateRows({&row, 1});
    return row;
}

std::vector<u64>
FmIndex::locateAll(const Interval &iv, u64 limit) const
{
    std::vector<u64> out(std::min(iv.count(), limit));
    std::iota(out.begin(), out.end(), iv.low);
    locateRows(out);
    return out;
}

EXMA_POPCNT_CLONES void
FmIndex::locateRows(std::span<u64> rows) const
{
    struct Walk
    {
        u64 *slot = nullptr;  ///< where the position goes
        u64 row = 0;          ///< current row, then its sample's index
        u64 steps = 0;        ///< LF steps taken so far
        bool sampled = false; ///< reached a sample; its value is due
    };
    auto prefetch = [&](u64 row) {
        rank_.prefetch(row);
        sa_sampled_.prefetch(row);
    };
    size_t next = 0;
    auto start = [&](Walk &w) {
        if (next == rows.size())
            return false;
        w = Walk{&rows[next], rows[next], 0, false};
        ++next;
        prefetch(w.row);
        return true;
    };
    // One visit is one LF step; a walk that reaches a sampled row takes
    // one more visit to read the sample value its last visit prefetched.
    auto visit = [&](Walk &w) {
        if (w.sampled) {
            *w.slot = sa_values_[w.row] + w.steps;
            return false;
        }
        if (sa_sampled_.get(w.row)) {
            w.row = sa_sampled_.rank1(w.row);
            w.sampled = true;
            prefetchRead(sa_values_.data() + w.row);
            return true;
        }
        w.row = lf(w.row);
        ++w.steps;
        prefetch(w.row);
        return true;
    };

    runInFlight<Walk>(rows.size(), start, visit);
}

} // namespace exma
