/**
 * @file
 * FMD index: a bidirectional FM-Index over T·#·revcomp(T)·$ supporting
 * forward and backward extension of bi-intervals, plus super-maximal
 * exact match (SMEM) collection (Li 2012, as used by BWA-MEM's seeding
 * stage — the workload of the paper's Fig. 1 and Fig. 19 alignment
 * rows).
 *
 * Alphabet (BWT coding): $ = 0, # = 1, A..T = 2..5. The separator #
 * prevents matches from straddling the strand boundary; $ terminates.
 * DNA queries can match neither.
 */

#ifndef EXMA_FMINDEX_FMD_INDEX_HH
#define EXMA_FMINDEX_FMD_INDEX_HH

#include <vector>

#include "common/bitvector.hh"
#include "common/dna.hh"
#include "common/types.hh"

namespace exma {

/**
 * A bi-interval: rows [x, x+s) start with the current match W; rows
 * [rx, rx+s) start with revcomp(W).
 */
struct BiInterval
{
    u64 x = 0;
    u64 rx = 0;
    u64 s = 0;

    bool empty() const { return s == 0; }
};

/** A super-maximal exact match of a query against both strands. */
struct Smem
{
    int qb = 0; ///< query begin (inclusive)
    int qe = 0; ///< query end (exclusive)
    BiInterval bi;

    int length() const { return qe - qb; }
    u64 hits() const { return bi.s; }
};

class FmdIndex
{
  public:
    explicit FmdIndex(const std::vector<Base> &ref);

    /** Rows of the doubled BW-matrix: 2|ref| + 2. */
    u64 size() const { return n_rows_; }

    /** Forward-strand reference length. */
    u64 refLength() const { return n_; }

    /** Bi-interval of the single-base string @p c. */
    BiInterval initInterval(Base c) const;

    /** Extend W -> cW (prepend on the forward strand). */
    BiInterval backwardExt(const BiInterval &bi, Base c) const;

    /** Extend W -> Wc (append on the forward strand). */
    BiInterval forwardExt(const BiInterval &bi, Base c) const;

    /** Occurrences of @p w across both strands (0 if empty/impossible). */
    u64 countOccurrences(const std::vector<Base> &w) const;

    /**
     * All SMEMs of @p query with length >= @p min_len and at least
     * @p min_intv occurrences. Output is sorted by query begin and
     * contains no interval nested inside another.
     */
    std::vector<Smem> collectSmems(const std::vector<Base> &query,
                                   int min_len, u64 min_intv = 1) const;

    /** A located occurrence mapped back to the forward strand. */
    struct HitPos
    {
        u64 pos = 0;    ///< forward-strand start of the (rc-)match
        bool is_rc = false;
    };

    /** Map up to @p limit occurrences of a SMEM to reference positions. */
    std::vector<HitPos> locate(const Smem &m, u64 limit) const;

  private:
    static constexpr int kSigma = 6;
    /** Rows per Occ checkpoint bucket. */
    static constexpr u64 kOccSample = 64;
    /** Text-position stride of the SA samples. */
    static constexpr u64 kSaSample = 32;

    void occ6(u64 i, u64 out[kSigma]) const;
    u64 occ1(u8 sym, u64 i) const;
    u64 lf(u64 row) const;

    /** SMEMs through pivot @p x0; returns the furthest forward end. */
    int smem1(const std::vector<Base> &q, int x0, u64 min_intv,
              std::vector<Smem> &out) const;

    u64 n_ = 0;       ///< forward reference length
    u64 n_rows_ = 0;  ///< 2n + 2
    std::vector<u8> bwt_;
    std::vector<u32> occ_ckpt_; ///< kSigma checkpoints per bucket
    u64 count_[kSigma + 1] = {};
    BitVector sa_sampled_;
    std::vector<u32> sa_values_;
};

} // namespace exma

#endif // EXMA_FMINDEX_FMD_INDEX_HH
