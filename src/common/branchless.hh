/**
 * @file
 * Branchless search primitives for the rank/Occ hot paths.
 *
 * Every k-step iteration of an EXMA search resolves two Occ lookups by
 * rank-searching a sorted increment list. `std::lower_bound` spends one
 * hard-to-predict branch per probe (the comparison outcome is
 * essentially a coin flip on random queries), so each lookup eats
 * several mispredicts on top of its cache misses. The one increment-list
 * search, KmerOccTable::occ, is built from the helpers here:
 *
 *  - branchlessLowerBound(): the classic monotone-bound binary search
 *    expressed so the comparison compiles to a conditional move, with
 *    software prefetch of both possible next probes;
 *  - probeCount(): integer probe accounting, bit-exact with the old
 *    per-lookup `ceil(log2(n + 1))` floating-point formula;
 *  - prefetchRead(): the one software-prefetch spelling, shared by the
 *    search above and the staged search's per-structure hooks
 *    (KmerOccTable, PackedRank, BitVector);
 *  - EXMA_POPCNT_CLONES: the hardware-popcount dispatch of the two
 *    ring entry points (FmIndex::locateRows, ExmaTable's staged
 *    search), picked once per process at load time.
 */

#ifndef EXMA_COMMON_BRANCHLESS_HH
#define EXMA_COMMON_BRANCHLESS_HH

#include <bit>
#include <cstddef>
#include <span>

#include "common/types.hh"

/**
 * On a function definition: compile it twice, once with POPCNT and once
 * for the baseline ISA, and let the loader pick one per process from
 * the CPU's features (an ifunc resolved at load time). The build's
 * baseline x86-64 has no POPCNT, so there every std::popcount is a
 * __popcountdi2 library call. `flatten` inlines every call the body
 * makes whose definition the compiler sees (the in-flight ring, the
 * rank and LF code under it), so each clone holds its own copy; without
 * it the callees stay one shared baseline copy and the POPCNT clone
 * still calls the library.
 *
 * Expands to nothing, leaving one baseline function, unless GCC
 * targets x86-64 Linux (the one toolchain the clones and the
 * build.popcnt_clones guard are checked on), and under ThreadSanitizer:
 * TSan instruments the ifunc resolver, which the loader runs before the
 * TSan runtime is up, so every binary would crash at start.
 */
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && \
    defined(__linux__) && !defined(__SANITIZE_THREAD__)
#define EXMA_POPCNT_CLONES \
    __attribute__((target_clones("popcnt", "default"), flatten))
#else
#define EXMA_POPCNT_CLONES
#endif

namespace exma {

/**
 * Hint the cache line holding @p p into cache for a later read. Never
 * dereferences @p p and cannot fault; callers still keep every address
 * inside (or one past the end of) the array it points into.
 */
inline void
prefetchRead(const void *p)
{
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p);
#else
    (void)p;
#endif
}

/**
 * First position in the sorted range [first, last) whose value is >= @p
 * key — identical result (leftmost match) to std::lower_bound, but the
 * halving step is a conditional move rather than a branch, and the two
 * candidate next probes are prefetched while the current one resolves.
 */
inline const u32 *
branchlessLowerBound(const u32 *first, const u32 *last, u32 key)
{
    size_t n = static_cast<size_t>(last - first);
    if (n == 0)
        return first;
    const u32 *base = first;
    while (n > 1) {
        const size_t half = n / 2;
        prefetchRead(base + half / 2);
        prefetchRead(base + half + half / 2);
        base = base[half] < key ? base + half : base; // cmov
        n -= half;
    }
    return base + (*base < key);
}

/** Rank of @p key in a sorted list: lower-bound position as a count. */
inline u64
lowerBoundRank(std::span<const u32> sorted, u32 key)
{
    return static_cast<u64>(
        branchlessLowerBound(sorted.data(), sorted.data() + sorted.size(),
                             key) -
        sorted.data());
}

/**
 * Worst-case probe count of a binary search over @p n entries:
 * bit_width(n) == ceil(log2(n + 1)), computed without touching the FPU.
 * (Equality: for 2^(b-1) <= n < 2^b both sides are b; for n == 0 both
 * are 0.) This is the instrumented `probes` figure charged to every
 * non-modelled Occ lookup.
 */
inline u64
probeCount(u64 n)
{
    return static_cast<u64>(std::bit_width(n));
}

} // namespace exma

#endif // EXMA_COMMON_BRANCHLESS_HH
