/**
 * @file
 * Succinct bit vector with O(1) rank queries.
 *
 * Used by the FM-Index locate machinery (sampled suffix-array rows) and
 * anywhere a compact marked-set with rank is needed. Layout: raw 64-bit
 * words plus a cumulative popcount checkpoint every 8 words (512 bits).
 * Both arrays sit behind Storage<u64> so a restored index can point
 * them straight into an mmap'd `.exma.sa` section.
 */

#ifndef EXMA_COMMON_BITVECTOR_HH
#define EXMA_COMMON_BITVECTOR_HH

#include <bit>
#include <span>
#include <vector>

#include "common/branchless.hh"
#include "common/logging.hh"
#include "common/storage.hh"
#include "common/types.hh"

namespace exma {

class BitVector
{
  public:
    BitVector() = default;

    /** Create an all-zero bit vector of @p n bits. */
    explicit BitVector(u64 n);

    /**
     * Restore from serialized parts (src/io/table_io.cc): @p words and
     * @p super are typically borrowed from an mmap'd section and must
     * already satisfy the buildRank() invariants.
     */
    BitVector(u64 n_bits, u64 ones, Storage<u64> words, Storage<u64> super);

    /** Number of bits. */
    u64 size() const { return n_bits_; }

    /** Set bit @p i to 1. Invalidates rank checkpoints until build(). */
    void set(u64 i);

    /** Read bit @p i. Bounds-checked in Debug builds only (hot path). */
    bool
    get(u64 i) const
    {
        exma_dassert(i < n_bits_, "bit index %llu out of range %llu",
                     (unsigned long long)i, (unsigned long long)n_bits_);
        return (words_[i >> 6] >> (i & 63)) & 1;
    }

    /**
     * Hint the word holding bit @p i (0..size()) into cache, so a later
     * get(i) does not stall — the locate ring's SA-sample probe.
     */
    void prefetch(u64 i) const { prefetchRead(words_.data() + (i >> 6)); }

    /** Build rank checkpoints; must be called after the last set(). */
    void buildRank();

    /**
     * Number of 1-bits in [0, i). Requires buildRank() first. Inline so
     * the locate ring's clones (EXMA_POPCNT_CLONES) each compile its
     * popcounts for their own ISA.
     */
    u64
    rank1(u64 i) const
    {
        // Hot path (every locate step resolves through here):
        // Debug-only, like get() — construction-time checks in
        // set()/buildRank() keep exma_assert.
        exma_dassert(i <= n_bits_, "rank index %llu out of range %llu",
                     (unsigned long long)i, (unsigned long long)n_bits_);
        const u64 word = i >> 6;
        const u64 block = word >> 3;
        u64 r = super_[block];
        for (u64 w = block * 8; w < word; ++w)
            r += static_cast<u64>(std::popcount(words_[w]));
        const u64 bit = i & 63;
        if (bit)
            r += static_cast<u64>(std::popcount(words_[word] &
                                                ((u64{1} << bit) - 1)));
        return r;
    }

    /** Total number of 1-bits. */
    u64 ones() const { return ones_; }

    /** Raw word array (serialization). */
    std::span<const u64> words() const { return words_.span(); }

    /** Rank checkpoint array (serialization). */
    std::span<const u64> superWords() const { return super_.span(); }

    /** Approximate heap footprint in bytes. */
    u64 sizeBytes() const;

  private:
    u64 n_bits_ = 0;
    u64 ones_ = 0;
    Storage<u64> words_;
    Storage<u64> super_; ///< cumulative popcount before each 8-word block
};

} // namespace exma

#endif // EXMA_COMMON_BITVECTOR_HH
