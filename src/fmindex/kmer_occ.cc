#include "fmindex/kmer_occ.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace exma {
namespace {

/** Base-5 code of a pure-DNA k-mer given its 2-bit packed code. */
u64
pureCodeTo5(Kmer code, int k)
{
    u64 out = 0;
    u64 mul = 1;
    for (int i = 0; i < k; ++i) {
        out += ((code & 3) + 1) * mul;
        mul *= 5;
        code >>= 2;
    }
    return out;
}

/** Smallest pure k-mer code whose base-5 form exceeds @p code5 (4^k if
 *  none). Build-time only; query-time countBefore() compares packed
 *  codes against these thresholds directly. */
u64
pureCodeAbove(u64 code5, int k)
{
    u64 lo = 0, hi = kmerSpace(k); // first candidate in [lo, hi]
    while (lo < hi) {
        const u64 mid = lo + (hi - lo) / 2;
        if (pureCodeTo5(mid, k) > code5)
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

/**
 * The build takes more than one chunk only when the reference is big
 * enough to amortise the fork/join, and the chunk count is capped so
 * the per-chunk k-mer histograms (one 4^k u32 array each) stay inside
 * a fixed byte budget.
 */
constexpr u64 kAutoParallelMinRows = u64{1} << 16;
constexpr u64 kHistogramByteBudget = u64{256} << 20;
constexpr unsigned kMaxBuildChunks = 8;

} // namespace

KmerOccTable::KmerOccTable(const std::vector<Base> &ref,
                           const std::vector<SaIndex> &sa, int k)
    : k_(k)
{
    build(ref, sa);
}

KmerOccTable::KmerOccTable(const std::vector<Base> &ref, int k) : k_(k)
{
    build(ref, buildSuffixArray(ref));
}

KmerOccTable::KmerOccTable(Restored parts)
    : k_(parts.k), n_rows_(parts.n_rows), distinct_(parts.distinct),
      bases_(std::move(parts.bases)), rows_(std::move(parts.rows)),
      sentinel_windows_(std::move(parts.sentinel_windows)),
      sentinel_thresholds_(std::move(parts.sentinel_thresholds))
{
    exma_assert(k_ >= 1 && k_ <= kMaxKmerLen, "k=%d out of supported range",
                k_);
    exma_assert(bases_.size() == kmerSpace(k_) + 1,
                "occ restore: base array has %llu entries for k=%d",
                (unsigned long long)bases_.size(), k_);
    exma_assert(bases_[bases_.size() - 1] == rows_.size(),
                "occ restore: %llu increments, base array claims %u",
                (unsigned long long)rows_.size(),
                bases_[bases_.size() - 1]);
    exma_assert(sentinel_windows_.size() == static_cast<u64>(k_) &&
                    sentinel_thresholds_.size() == static_cast<u64>(k_),
                "occ restore: expected k=%d sentinel windows", k_);
}

void
KmerOccTable::build(const std::vector<Base> &ref,
                    const std::vector<SaIndex> &sa)
{
    exma_assert(k_ >= 1 && k_ <= kMaxKmerLen, "k=%d out of supported range",
                k_);
    const u64 n = ref.size();
    const u64 k = static_cast<u64>(k_);
    n_rows_ = n + 1;
    exma_assert(sa.size() == n_rows_, "suffix array size mismatch");
    exma_assert(n >= k, "reference shorter than k");

    const u64 space = kmerSpace(k_);
    // Built into plain vectors, moved into the Storage members at the
    // end (borrowed Storage is immutable, so build paths stay local).
    std::vector<u32> bases(space + 1, 0);
    std::vector<u32> rows;

    // The window preceding row r covers positions SA[r]-k .. SA[r]-1 of
    // ref·$, circularly. It wraps through the sentinel exactly when
    // SA[r] < k, so the hot path is a plain packKmer over ref with no
    // per-symbol modulo; only the k sentinel rows take the generic
    // circular walk below.
    auto sentinelCode5 = [&](u64 r) {
        u64 code = 0;
        for (u64 j = 0; j < k; ++j) {
            const u64 idx = (sa[r] + n_rows_ - (k - j)) % n_rows_;
            code = code * 5 +
                   (idx == n ? u64{0} : static_cast<u64>(ref[idx]) + 1);
        }
        return code;
    };

    // Chunked two-pass build: per-chunk k-mer histograms feed both the
    // global prefix sum and the per-chunk placement cursors, so the
    // second pass writes each k-mer's rows in global row order with no
    // synchronisation — the table is bit-identical at any chunk count.
    // A one-chunk build's histogram becomes its one cursor, so it holds
    // no 4^k array more than a count-then-place build would.
    unsigned chunks = n_rows_ >= kAutoParallelMinRows
                          ? std::min(parallelForSlots(), kMaxBuildChunks)
                          : 1;
    chunks = static_cast<unsigned>(std::clamp<u64>(
        kHistogramByteBudget / (space * 4), 1, chunks));
    // 0 = the pool at full width; a one-chunk build stays on the
    // calling thread, code passes included.
    const unsigned threads = chunks == 1 ? 1 : 0;
    const u64 rows_per_chunk = (n_rows_ + chunks - 1) / chunks;
    // Run @p fn(t, lo, hi) for every chunk t and its rows [lo, hi),
    // chunks in parallel.
    auto forChunks = [&](const auto &fn) {
        parallelFor(
            chunks, 1,
            [&](u64 cb, u64 ce, unsigned) {
                for (u64 t = cb; t < ce; ++t) {
                    const u64 lo = t * rows_per_chunk;
                    fn(t, lo, std::min(lo + rows_per_chunk, n_rows_));
                }
            },
            threads);
    };

    // Pass 1: count occurrences per pure k-mer into the chunk's
    // histogram, allocated by the thread that fills it; collect
    // sentinel rows.
    std::vector<std::vector<u32>> hist(chunks);
    std::vector<std::vector<std::pair<u64, u32>>> sent(chunks);
    forChunks([&](u64 t, u64 lo, u64 hi) {
        auto &h = hist[t];
        h.assign(space, 0);
        for (u64 r = lo; r < hi; ++r) {
            const u64 pos = sa[r];
            if (pos >= k)
                ++h[packKmer(ref.data() + (pos - k), k_)];
            else
                sent[t].emplace_back(sentinelCode5(r), static_cast<u32>(r));
        }
    });
    sentinel_windows_.clear();
    for (const auto &chunk_sent : sent)
        sentinel_windows_.insert(sentinel_windows_.end(), chunk_sent.begin(),
                                 chunk_sent.end());
    exma_assert(sentinel_windows_.size() == k,
                "expected exactly k sentinel windows, got %zu",
                sentinel_windows_.size());
    std::sort(sentinel_windows_.begin(), sentinel_windows_.end());
    sentinel_thresholds_.resize(sentinel_windows_.size());
    for (size_t w = 0; w < sentinel_windows_.size(); ++w)
        sentinel_thresholds_[w] =
            pureCodeAbove(sentinel_windows_[w].first, k_);

    // Run @p fn(m) over every k-mer code, in parallel.
    const u64 code_grain = std::max<u64>(space / (chunks * 8u), 4096);
    auto forCodes = [&](const auto &fn) {
        parallelFor(
            space, code_grain,
            [&](u64 mb, u64 me, unsigned) {
                for (u64 m = mb; m < me; ++m)
                    fn(m);
            },
            threads);
    };

    // Merge the chunk histograms into bases[m + 1].
    forCodes([&](u64 m) {
        u32 sum = 0;
        for (unsigned t = 0; t < chunks; ++t)
            sum += hist[t][m];
        bases[m + 1] = sum;
    });

    // Prefix-sum the counts into base offsets; count distinct k-mers.
    distinct_ = 0;
    for (u64 m = 0; m < space; ++m) {
        if (bases[m + 1] != 0)
            ++distinct_;
        bases[m + 1] += bases[m];
    }

    // Pass 2: place rows. Each histogram entry becomes its chunk's
    // cursor, staggered by the earlier chunks' counts; ascending r
    // within a chunk then keeps every increment list globally sorted.
    forCodes([&](u64 m) {
        u32 cur = bases[m];
        for (unsigned t = 0; t < chunks; ++t) {
            const u32 cnt = hist[t][m];
            hist[t][m] = cur;
            cur += cnt;
        }
    });
    rows.resize(bases[space]);
    forChunks([&](u64 t, u64 lo, u64 hi) {
        auto &cursor = hist[t];
        for (u64 r = lo; r < hi; ++r) {
            const u64 pos = sa[r];
            if (pos >= k)
                rows[cursor[packKmer(ref.data() + (pos - k), k_)]++] =
                    static_cast<u32>(r);
        }
    });
    bases_ = Storage<u32>(std::move(bases));
    rows_ = Storage<u32>(std::move(rows));
}

u64
KmerOccTable::countBefore(Kmer code) const
{
    // Pure-DNA windows below `code` ...
    u64 cnt = bases_[code];
    // ... plus sentinel-containing windows that sort below it: a
    // branch-free count over all k thresholds, since where an ascending
    // scan would stop is a coin flip per k-mer.
    for (const u64 t : sentinel_thresholds_)
        cnt += static_cast<u64>(t <= code);
    return cnt;
}

u64
KmerOccTable::sizeBytes() const
{
    return bases_.size() * 4 + rows_.size() * 4 +
           sentinel_windows_.size() * 12 + sentinel_thresholds_.size() * 8;
}

} // namespace exma
