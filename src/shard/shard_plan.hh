/**
 * @file
 * Reference partitioning for sharded serving (ShardRouter, src/route/)
 * — the software analogue of the paper's multi-channel scale-out (§V:
 * EXMA spreads the k-step FM-index across parallel memory
 * channels/DIMMs; FindeR makes the same move for FM-index rank
 * hardware).
 *
 * A ShardPlan cuts the reference into shards, each of which is served
 * by an ExmaTable over the shard's one-slice text (sliceOf). Three
 * partitioning policies:
 *
 *  - fixedWidth: N equal-stride shards, adjacent shards overlapping by
 *    max_query_len - 1 bases. Any match of length <= max_query_len
 *    starting inside shard i's stride lies entirely within shard i, so
 *    no match spanning a shard boundary is ever lost; matches falling
 *    fully inside an overlap zone are found by both neighbours and
 *    deduplicated at merge time.
 *
 *  - perRecord: one shard per source record (FASTA record /
 *    chromosome), no overlap. Matches never span record boundaries in
 *    real genomes — a "match" across the concatenation seam of two
 *    chromosomes is an artifact — so this policy is the biologically
 *    correct one, but it is deliberately NOT hit-set-equivalent to one
 *    monolithic table over the concatenation (which reports seam
 *    artifacts).
 *
 *  - kmerPrefix: shards own *k-mer-prefix ranges* instead of text
 *    slices, and every shard's text is the whole reference. Every text
 *    position belongs to the shard whose code range [lo, hi) contains
 *    the packed code of its first prefix_len bases (A-padded near the
 *    reference end), and the cuts balance owned positions, so the
 *    ranges spread queries evenly over the shards. Since every shard
 *    holds the whole text, the shards are lanes over one shared table
 *    (textOf): the router sends each query to one shard, and memory
 *    does not grow with the shard count.
 */

#ifndef EXMA_SHARD_SHARD_PLAN_HH
#define EXMA_SHARD_SHARD_PLAN_HH

#include <string>
#include <vector>

#include "common/dna.hh"
#include "common/types.hh"
#include "core/text_segments.hh"
#include "genome/reference.hh"

namespace exma {

/** One contiguous slice of the global reference. */
struct Shard
{
    std::string name;
    u64 begin = 0;  ///< global offset of the shard's first base
    u64 length = 0; ///< shard length in bases

    u64 end() const { return begin + length; }
    bool operator==(const Shard &) const = default;
};

/** How a plan's shards partition the reference. */
enum class ShardPlanKind
{
    Text,       ///< contiguous text slices (fixedWidth / perRecord)
    KmerPrefix, ///< k-mer-prefix code ranges (kmerPrefix)
};

/** A half-open range [lo, hi) of packed prefix_len-mer codes. */
struct PrefixRange
{
    Kmer lo = 0;
    Kmer hi = 0;

    bool contains(Kmer code) const { return code >= lo && code < hi; }
    bool empty() const { return lo == hi; }
    bool operator==(const PrefixRange &) const = default;
};

class ShardPlan
{
  public:
    /** maxQueryLen() value meaning "no per-query length bound". */
    static constexpr u64 kUnboundedQueryLen = ~u64{0};

    /** Smallest reference slice worth an ExmaTable of its own. */
    static constexpr u64 kMinShardBases = 64;

    /**
     * Partition [0, ref_len) into @p n_shards equal-stride shards with
     * an overlap of @p max_query_len - 1 bases between neighbours.
     * Shards that would start past the end of a small reference are
     * dropped, so the resulting plan may hold fewer than @p n_shards.
     */
    static ShardPlan fixedWidth(u64 ref_len, unsigned n_shards,
                                u64 max_query_len);

    /**
     * One shard per record span (spans must be contiguous from 0, as
     * produced by makeDatasetFromRecords). No overlap, no query-length
     * bound. Records shorter than kMinShardBases — real assemblies
     * carry tiny scaffolds — are folded into a neighbouring shard
     * (with one summary warning) rather than given unbuildable tables
     * of their own; only those folded seams can report concatenation
     * artifacts.
     */
    static ShardPlan perRecord(const std::vector<RecordSpan> &records);

    /** Largest prefix_len kmerPrefix accepts (histogram is 4^p u64s). */
    static constexpr int kMaxPrefixLen = 10;

    /**
     * Prefix-partitioned plan: split the packed prefix_len-mer code
     * space [0, 4^prefix_len) into @p n_shards contiguous ranges of
     * roughly equal owned-position weight (measured on @p ref). Every
     * shard's text is the whole reference. Ranges with no occurrences
     * are legal; ownerOf() skips them.
     *
     * @param max_query_len longest query the router accepts.
     * @param prefix_len routing prefix p in bases; 0 picks an
     *        automatic value (smallest p with 4^p >= 64 * n_shards,
     *        clamped to [2, 8]). A query shorter than p routes to the
     *        owner of the lowest code its padded range holds.
     */
    static ShardPlan kmerPrefix(const std::vector<Base> &ref,
                                unsigned n_shards, u64 max_query_len,
                                int prefix_len = 0);

    /**
     * Reassemble a plan from its serialized members (src/persist/
     * index_io.cc) without re-deriving anything from the reference.
     * Checks the cross-member invariants the factories guarantee and
     * throws std::invalid_argument naming the first one broken, which
     * the loader reports as a LoadError.
     */
    static ShardPlan restore(std::vector<Shard> shards, ShardPlanKind kind,
                             u64 ref_len, u64 overlap, u64 max_query_len,
                             int prefix_len,
                             std::vector<PrefixRange> prefix_ranges);

    const std::vector<Shard> &shards() const { return shards_; }
    size_t size() const { return shards_.size(); }

    ShardPlanKind kind() const { return kind_; }

    /** Routing prefix length in bases (0 for text-partitioned plans). */
    int prefixLen() const { return prefix_len_; }

    /**
     * Per-shard prefix code ranges, index-parallel with shards();
     * contiguous and covering [0, 4^prefixLen()). Empty for
     * text-partitioned plans.
     */
    const std::vector<PrefixRange> &prefixRanges() const
    {
        return prefix_ranges_;
    }

    /** Shard @p i's text: the one slice {begin, length}. */
    TextSegment sliceOf(size_t i) const
    {
        return {shards_[i].begin, shards_[i].length};
    }

    /**
     * The first shard whose slice equals shard @p i's. Shards with
     * equal slices share one table: every shard of a kmerPrefix plan
     * maps to shard 0, every shard of a text plan to itself.
     */
    size_t textOf(size_t i) const;

    /** Shard owning padded prefix code @p code (kmerPrefix plans). */
    size_t ownerOf(Kmer code) const;

    /**
     * Inclusive [first, last] shard indices whose prefix ranges
     * intersect the non-empty code range [lo, hi). The router needs
     * only the first, ownerOf(lo): every shard holds the whole text.
     */
    std::pair<size_t, size_t> ownersOfRange(Kmer lo, Kmer hi) const;

    /**
     * Padded code range of a query prefix: a query of at least
     * prefixLen() bases pins a single code (width-1 range); a shorter
     * query A-pads to the range of every code starting with it.
     */
    PrefixRange queryPrefixRange(const Base *query, size_t len) const;

    /** Length of the global reference the plan covers. */
    u64 refLength() const { return ref_len_; }

    /** Overlap between neighbouring shards (0 for per-record plans). */
    u64 overlap() const { return overlap_; }

    /**
     * Longest query the plan accepts (for fixedWidth plans, the one
     * the boundary overlap covers); kUnboundedQueryLen for per-record
     * plans.
     */
    u64 maxQueryLen() const { return max_query_len_; }
    bool boundsQueries() const
    {
        return max_query_len_ != kUnboundedQueryLen;
    }

  private:
    std::vector<Shard> shards_;
    ShardPlanKind kind_ = ShardPlanKind::Text;
    u64 ref_len_ = 0;
    u64 overlap_ = 0;
    u64 max_query_len_ = kUnboundedQueryLen;
    int prefix_len_ = 0;
    std::vector<PrefixRange> prefix_ranges_; ///< kmerPrefix only
};

} // namespace exma

#endif // EXMA_SHARD_SHARD_PLAN_HH
