/**
 * @file
 * The one-slice geometry of a table's text: an ExmaTable (or a scan
 * shard) covers one contiguous slice of the global reference and
 * reports hits in global coordinates by adding the slice's first
 * position. A whole-reference table is the slice [0, n).
 *
 * Every shard of every ShardPlan is one slice. A text plan's shard is
 * its stride or record; a k-mer-prefix shard is the whole reference,
 * so all of a prefix plan's shards share one table and differ only in
 * which queries the router sends them. A table built over a slice
 * cannot report a match that runs past the slice's end, so no hit
 * needs filtering.
 */

#ifndef EXMA_CORE_TEXT_SEGMENTS_HH
#define EXMA_CORE_TEXT_SEGMENTS_HH

#include <vector>

#include "common/dna.hh"
#include "common/types.hh"

namespace exma {

/** One contiguous global slice: the text a table covers. */
struct TextSegment
{
    u64 global_begin = 0; ///< first base in the global reference
    u64 length = 0;       ///< slice length in bases

    u64 global_end() const { return global_begin + length; }
    bool operator==(const TextSegment &) const = default;
};

/**
 * Whether @p slice is a well-formed slice of a @p ref_len-base
 * reference: non-empty and within [0, ref_len). Overflow-safe, so a
 * slice read from a file can be checked before anything sums it.
 */
bool sliceFits(const TextSegment &slice, u64 ref_len);

/** Copy the bases of @p slice out of @p ref. */
std::vector<Base> extractSegment(const std::vector<Base> &ref,
                                 const TextSegment &slice);

} // namespace exma

#endif // EXMA_CORE_TEXT_SEGMENTS_HH
