/**
 * @file
 * Cache-line-conscious rank over a DNA BWT — the software analogue of
 * the paper's "one memory access per Occ" goal (§III, Fig. 4-5), using
 * the BWA occurrence-array layout.
 *
 * The BWT ($,A..T coded 0..4) is stored 2-bit-packed in 64-symbol
 * blocks; each block carries its four interleaved Occ checkpoints
 * (counts of A,C,G,T before the block), so the checkpoint and the
 * symbols it covers live in the same 32-byte block — one Occ(sym, i)
 * resolution touches a single cache line, via a mask over two 64-bit
 * words and one popcount, instead of a separate checkpoint array plus up
 * to 63 byte loads from a byte BWT checkpointed every 64 rows.
 *
 * The sentinel has no 2-bit code: its row stores code 0 ('A') and its
 * position is kept as `primary_`; occ() subtracts the phantom 'A' and
 * answers Occ($, i) directly from the primary row, exactly like the
 * FM-index primary-row special case this structure replaces.
 */

#ifndef EXMA_FMINDEX_PACKED_RANK_HH
#define EXMA_FMINDEX_PACKED_RANK_HH

#include <bit>
#include <span>
#include <vector>

#include "common/branchless.hh"
#include "common/logging.hh"
#include "common/storage.hh"
#include "common/types.hh"

namespace exma {

class PackedRank
{
  public:
    /** Symbols per block (and per checkpoint). */
    static constexpr u64 kBlockSymbols = 64;

    /**
     * One rank block: checkpoints and the 64 symbols they describe,
     * interleaved. 32 bytes, so two blocks share a cache line and no
     * lookup ever straddles one. Public (and trivially copyable)
     * because this is exactly the record the `.exma.sa` file stores —
     * a loaded PackedRank points blocks_ straight into the mapping.
     */
    struct alignas(32) Block
    {
        u32 ckpt[4] = {}; ///< Occ(A..T) before the block (phantom 'A'
                          ///< of the primary row included)
        u64 data[2] = {}; ///< 2-bit symbol codes, lane j of word j>>5
    };
    static_assert(sizeof(Block) == 32, "rank block must stay 32 bytes");

    PackedRank() = default;

    /**
     * Build from a BWT in 0..4 coding. At most one symbol may be the
     * sentinel (0); a sentinel-free sequence is also accepted (occ(0,·)
     * is then identically 0).
     */
    explicit PackedRank(std::span<const u8> bwt);

    /**
     * Restore from serialized parts (src/io/table_io.cc): @p blocks is
     * typically borrowed from an mmap'd `.exma.sa` section.
     */
    PackedRank(u64 n, u64 primary, Storage<Block> blocks)
        : n_(n), primary_(primary), blocks_(std::move(blocks))
    {
        exma_assert(blocks_.size() == (n_ >> 6) + 1,
                    "rank restore: %llu blocks cannot cover %llu symbols",
                    (unsigned long long)blocks_.size(),
                    (unsigned long long)n_);
    }

    /** The raw block array (serialization). */
    std::span<const Block> blocks() const { return blocks_.span(); }

    /** Number of symbols. */
    u64 size() const { return n_; }

    /** Row of the sentinel, or ~0 (past any row) if there is none. */
    u64 primary() const { return primary_; }

    /** Occ(sym, i): occurrences of @p sym (0..4) in BWT[0, i). */
    u64
    occ(u8 sym, u64 i) const
    {
        exma_dassert(sym <= 4 && i <= n_,
                     "occ(%u, %llu) out of range (n=%llu)", sym,
                     (unsigned long long)i, (unsigned long long)n_);
        if (sym == 0)
            return i > primary_ ? 1 : 0;
        const u64 c = sym - 1u;
        const Block &b = blocks_[i >> 6];
        const unsigned off = i & 63;
        const u64 pat = c * kEvenBits; // symbol code replicated per lane
        const unsigned l0 = off < 32 ? off : 32;
        const unsigned l1 = off < 32 ? 0 : off - 32;
        // Both words' markers sit on even bits, so shifting the second
        // word's onto the odd bits counts the two with one popcount.
        const u64 m0 = eqLanes(b.data[0], pat) & laneMask(l0);
        const u64 m1 = eqLanes(b.data[1], pat) & laneMask(l1);
        const u64 both = m0 | (m1 << 1);
        u64 r = b.ckpt[c] + static_cast<u64>(std::popcount(both));
        // The primary row stores a phantom 'A'; Occ(A, i) must not
        // count it (checkpoints include it, so one subtract fixes all).
        r -= static_cast<u64>(c == 0) & static_cast<u64>(i > primary_);
        return r;
    }

    /**
     * Hint the block that occ(·, @p i) and symAt(@p i) read into cache
     * (@p i in 0..size()); the staged search issues this one memory
     * stage ahead of the read.
     */
    void prefetch(u64 i) const { prefetchRead(blocks_.data() + (i >> 6)); }

    /** BWT symbol at @p row (0..4). */
    u8
    symAt(u64 row) const
    {
        exma_dassert(row < n_, "row %llu out of range %llu",
                     (unsigned long long)row, (unsigned long long)n_);
        if (row == primary_)
            return 0;
        const Block &b = blocks_[row >> 6];
        const unsigned j = row & 63;
        return static_cast<u8>(((b.data[j >> 5] >> (2 * (j & 31))) & 3) +
                               1);
    }

    /** Heap footprint in bytes. */
    u64 sizeBytes() const { return blocks_.size() * sizeof(Block); }

  private:
    /** Every even bit set: one marker bit position per 2-bit lane. */
    static constexpr u64 kEvenBits = 0x5555555555555555ULL;

    /** 1 at the even bit of every 2-bit lane of @p w equal to @p pat. */
    static u64
    eqLanes(u64 w, u64 pat)
    {
        const u64 x = w ^ pat; // equal lanes become 00
        return ~(x | (x >> 1)) & kEvenBits;
    }

    /** Marker-bit mask covering the first @p lanes lanes (0..32). */
    static u64
    laneMask(unsigned lanes)
    {
        return lanes >= 32 ? ~u64{0} : (u64{1} << (2 * lanes)) - 1;
    }

    u64 n_ = 0;
    u64 primary_ = ~u64{0}; ///< ~0 (= "past any i") when sentinel-free
    Storage<Block> blocks_;
};

} // namespace exma

#endif // EXMA_FMINDEX_PACKED_RANK_HH
