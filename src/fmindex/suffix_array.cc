#include "fmindex/suffix_array.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <type_traits>

#include "common/branchless.hh"
#include "common/logging.hh"

namespace exma {
namespace {

constexpr SaIndex kEmpty = std::numeric_limits<SaIndex>::max();

/** Sorted LMS suffixes the naming pass prefetches ahead of its cursor. */
constexpr u32 kNamePrefetch = 16;

/** Bit @p i of a flag-word array. */
inline bool
testBit(const u64 *words, u32 i)
{
    return (words[i >> 6] >> (i & 63)) & 1;
}

/** Calls @p fn(i) for every set bit i of @p words, in ascending order. */
template <typename Fn>
void
forEachBit(const std::vector<u64> &words, Fn &&fn)
{
    for (size_t w = 0; w < words.size(); ++w)
        for (u64 bits = words[w]; bits != 0; bits &= bits - 1)
            fn(static_cast<u32>(w * 64 + std::countr_zero(bits)));
}

/** One level's suffix types: bit i set when suffix i is S-type / LMS. */
struct TypeWords
{
    std::vector<u64> stype;
    std::vector<u64> lms;
    u32 n_lms = 0;
};

/**
 * Types right to left with no branch on the text: suffix i is S-type
 * when s[i] < s[i+1], or s[i] == s[i+1] and suffix i+1 is S-type. The
 * LMS words follow with a one-bit shift carried across words: i is LMS
 * when it is S-type and i-1 is L-type (position 0 never is).
 */
template <typename Sym>
TypeWords
classify(const Sym *s, u32 n)
{
    TypeWords t;
    const u32 words = (n + 63) / 64;
    t.stype.assign(words, 0);
    t.lms.assign(words, 0);
    u64 next = 1; // the sentinel suffix is S-type
    for (u32 w = words; w-- > 0;) {
        const u32 lo = w * 64;
        const u32 hi = std::min(lo + 64, n - 1);
        u64 acc = w + 1 == words ? u64{1} << ((n - 1) & 63) : 0;
        for (u32 i = hi; i-- > lo;) {
            next = static_cast<u64>(s[i] < s[i + 1]) |
                   (static_cast<u64>(s[i] == s[i + 1]) & next);
            acc |= next << (i - lo);
        }
        t.stype[w] = acc;
    }
    u64 carry = 1;
    for (u32 w = 0; w < words; ++w) {
        const u64 sw = t.stype[w];
        t.lms[w] = sw & ~((sw << 1) | carry);
        carry = sw >> 63;
        t.n_lms += static_cast<u32>(std::popcount(t.lms[w]));
    }
    return t;
}

/** Bucket starts (@p end false) or ends (@p end true) from the counts. */
void
bucketBounds(const std::vector<u32> &counts, std::vector<u32> &bkt,
             bool end)
{
    u32 sum = 0;
    for (size_t c = 0; c < counts.size(); ++c) {
        sum += counts[c];
        bkt[c] = end ? sum : sum - counts[c];
    }
}

/**
 * Induce-sort the L-type suffixes left to right, then the S-type ones
 * right to left, from what @p sa holds. `sa[i] - 1` wraps past n for an
 * empty slot and for suffix 0, so one compare skips both.
 */
template <typename Sym>
void
induce(const Sym *s, SaIndex *sa, u32 n, const u64 *stype,
       const std::vector<u32> &counts, std::vector<u32> &bkt)
{
    bucketBounds(counts, bkt, false);
    for (u32 i = 0; i < n; ++i) {
        const u32 p = sa[i] - 1;
        if (p < n && !testBit(stype, p))
            sa[bkt[s[p]]++] = p;
    }
    bucketBounds(counts, bkt, true);
    for (u32 i = n; i-- > 0;) {
        const u32 p = sa[i] - 1;
        if (p < n && testBit(stype, p))
            sa[--bkt[s[p]]] = p;
    }
}

/**
 * SA-IS over @p s (symbols in [0, sigma)), which must end with a unique
 * smallest sentinel: value 0 exactly once, at position n - 1.
 */
template <typename Sym>
void
sais(const Sym *s, SaIndex *sa, u32 n, u32 sigma)
{
    if (n == 1) {
        sa[0] = 0;
        return;
    }
    const TypeWords t = classify(s, n);
    const u32 n1 = t.n_lms;
    std::vector<u32> counts(sigma, 0);
    for (u32 i = 0; i < n; ++i)
        ++counts[s[i]];
    std::vector<u32> bkt(sigma);

    // Stage 1: LMS suffixes at their bucket ends, induce, and keep the
    // LMS ones, now sorted by their LMS substrings, in sa[0, n1).
    std::fill(sa, sa + n, kEmpty);
    bucketBounds(counts, bkt, true);
    forEachBit(t.lms, [&](u32 i) { sa[--bkt[s[i]]] = i; });
    induce(s, sa, n, t.stype.data(), counts, bkt);
    for (u32 i = 0, m = 0; i < n; ++i)
        if (testBit(t.lms.data(), sa[i]))
            sa[m++] = sa[i];

    // Name the LMS substrings. LMS positions are at least 2 apart, so
    // sa[n1 + pos / 2] is a private slot per position: it first holds
    // the substring's length (through the next LMS position; the
    // sentinel's is 1), then its name + 1. Two substrings are equal
    // exactly when their lengths and symbols are: both end on an
    // S-type position, so equal symbols imply equal types.
    std::fill(sa + n1, sa + n, 0);
    u32 last = kEmpty;
    forEachBit(t.lms, [&](u32 q) {
        if (last != kEmpty)
            sa[n1 + last / 2] = q - last + 1;
        last = q;
    });
    sa[n1 + last / 2] = 1; // last == n - 1, the sentinel
    u32 name = 0;
    u32 prev_pos = 0;
    u32 prev_len = 0;
    for (u32 i = 0; i < n1; ++i) {
        if (i + kNamePrefetch < n1) {
            const u32 ahead = sa[i + kNamePrefetch];
            prefetchRead(s + ahead);
            prefetchRead(sa + n1 + ahead / 2);
        }
        const u32 pos = sa[i];
        const u32 len = sa[n1 + pos / 2];
        if (len != prev_len ||
            std::memcmp(s + pos, s + prev_pos, len * sizeof(Sym)) != 0) {
            ++name;
            prev_pos = pos;
            prev_len = len;
        }
        sa[n1 + pos / 2] = name;
    }
    for (u32 i = n, j = n; i-- > n1;)
        if (sa[i] != 0)
            sa[--j] = sa[i] - 1;

    // Stage 2: sort the reduced string, recursing while names repeat.
    // It lives in the tail of the output buffer, s1 = sa[n - n1, n):
    // that reuse is what keeps SA-IS in O(n) extra space. The u32 view
    // of SaIndex storage is only legal because they are the same type;
    // if SaIndex ever widens (e.g. to u64 for >4 Gbp references) this
    // must become a separate reduced-string buffer, not a cast.
    static_assert(std::is_same_v<SaIndex, u32>,
                  "sais reuses the SaIndex output buffer as u32 "
                  "reduced-string storage; the types must be identical");
    u32 *s1 = sa + n - n1;
    if (name < n1) {
        sais<u32>(s1, sa, n1, name);
    } else {
        for (u32 i = 0; i < n1; ++i)
            sa[s1[i]] = i;
    }

    // Stage 3: map LMS ranks back to positions, seed them at their
    // bucket ends in sorted order, and induce the full SA.
    u32 j = 0;
    forEachBit(t.lms, [&](u32 i) { s1[j++] = i; });
    for (u32 i = 0; i < n1; ++i)
        sa[i] = s1[sa[i]];
    std::fill(sa + n1, sa + n, kEmpty);
    bucketBounds(counts, bkt, true);
    for (u32 i = n1; i-- > 0;) {
        const u32 p = sa[i];
        sa[i] = kEmpty;
        sa[--bkt[s[p]]] = p;
    }
    induce(s, sa, n, t.stype.data(), counts, bkt);
}

} // namespace

std::vector<SaIndex>
buildSuffixArrayGeneric(const std::vector<u8> &text, u32 sigma)
{
    exma_assert(text.size() < std::numeric_limits<u32>::max() - 2,
                "text too long for a 32-bit suffix array");
    exma_assert(sigma < 256, "alphabet of %u symbols does not fit a byte "
                "with the sentinel", sigma);
    const u8 top = text.empty() ? 0 : *std::max_element(text.begin(),
                                                        text.end());
    exma_assert(text.empty() || top < sigma, "symbol %u out of range", top);
    const u32 n = static_cast<u32>(text.size()) + 1;
    std::vector<u8> s(n);
    for (u32 i = 0; i + 1 < n; ++i)
        s[i] = static_cast<u8>(text[i] + 1); // room for the sentinel, 0
    s[n - 1] = 0;
    std::vector<SaIndex> sa(n);
    sais(s.data(), sa.data(), n, sigma + 1);
    return sa;
}

std::vector<SaIndex>
buildSuffixArray(const std::vector<Base> &ref)
{
    static_assert(std::is_same_v<Base, u8>);
    return buildSuffixArrayGeneric(ref, kDnaAlphabet);
}

std::vector<SaIndex>
buildSuffixArrayNaive(const std::vector<Base> &ref)
{
    const u32 n = static_cast<u32>(ref.size()) + 1;
    std::vector<SaIndex> sa(n);
    for (u32 i = 0; i < n; ++i)
        sa[i] = i;
    auto suffix_less = [&](SaIndex a, SaIndex b) {
        while (true) {
            const bool ea = a == n - 1, eb = b == n - 1;
            if (ea || eb)
                return ea && !eb;
            if (ref[a] != ref[b])
                return ref[a] < ref[b];
            ++a;
            ++b;
        }
    };
    std::sort(sa.begin(), sa.end(), suffix_less);
    return sa;
}

} // namespace exma
