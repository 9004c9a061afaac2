/**
 * @file
 * LISA's Index-Paired BWT (IP-BWT) array (§II.B.4, Fig. 5): entry i is
 * the pair [k-mer, N] where the k-mer is the first k symbols of BW-matrix
 * row i (base-5 coded, $ = 0 smallest) and N is the row of the rotation
 * with the first k and remaining symbols swapped. Entries are sorted by
 * construction; each backward-search iteration is one lower-bound query
 * of a [k-mer, pointer] pair.
 */

#ifndef EXMA_LISA_IP_BWT_HH
#define EXMA_LISA_IP_BWT_HH

#include <vector>

#include "common/dna.hh"
#include "common/types.hh"
#include "fmindex/fm_index.hh"
#include "fmindex/suffix_array.hh"

namespace exma {

class IpBwt
{
  public:
    IpBwt(const std::vector<Base> &ref, const std::vector<SaIndex> &sa,
          int k);
    IpBwt(const std::vector<Base> &ref, int k);

    int k() const { return k_; }
    u64 rows() const { return n_rows_; }

    /** Base-5 k-mer code of entry @p i. */
    u64 kmer5(u64 i) const { return kmer5_[i]; }

    /** Paired row number N of entry @p i. */
    u64 pairedRow(u64 i) const { return n_[i]; }

    /** First index whose [k-mer, N] pair is >= [@p code5, @p pos]. */
    u64 lowerBound(u64 code5, u64 pos) const;

    /** Base-5 code of @p len DNA symbols padded to k with $ (low). */
    u64 padLow(const Base *syms, int len) const;

    /** Base-5 code of @p len DNA symbols padded to k with T (high). */
    u64 padHigh(const Base *syms, int len) const;

    /** Base-5 code of a full pure-DNA k-mer. */
    u64 code5Of(const Base *syms) const;

    /**
     * Chunked backward search (binary-search driven): searchWith() over
     * lowerBound(). Must equal FmIndex::search's interval.
     */
    Interval search(const std::vector<Base> &query) const;

    /**
     * The chunk walk of every LISA search: the rightmost partial chunk
     * first with $/T padding, then full k-mer chunks right to left, each
     * chunk a low then a high @p lower_bound(code5, pos) call — an
     * oracle that must answer as lowerBound() does.
     */
    template <typename LowerBound>
    Interval
    searchWith(const std::vector<Base> &query,
               LowerBound &&lower_bound) const
    {
        Interval iv{0, n_rows_};
        size_t i = query.size();
        const size_t rem = query.size() % static_cast<size_t>(k_);
        if (rem != 0) {
            i -= rem;
            const Base *chunk = query.data() + i;
            iv.low = lower_bound(padLow(chunk, static_cast<int>(rem)), 0);
            iv.high = lower_bound(padHigh(chunk, static_cast<int>(rem)),
                                  n_rows_);
            if (iv.empty())
                return Interval{iv.low, iv.low};
        }
        while (i > 0) {
            i -= static_cast<size_t>(k_);
            const u64 code = code5Of(query.data() + i);
            iv.low = lower_bound(code, iv.low);
            iv.high = lower_bound(code, iv.high);
            if (iv.empty())
                return Interval{iv.low, iv.low};
        }
        return iv;
    }

    /** Iterations a search of length @p qlen takes: ceil(qlen / k). */
    u64
    iterationsFor(u64 qlen) const
    {
        return (qlen + static_cast<u64>(k_) - 1) / static_cast<u64>(k_);
    }

  private:
    void build(const std::vector<Base> &ref, const std::vector<SaIndex> &sa);

    int k_;
    u64 n_rows_ = 0;
    std::vector<u64> kmer5_; ///< sorted (with n_) by construction
    std::vector<u32> n_;
};

} // namespace exma

#endif // EXMA_LISA_IP_BWT_HH
