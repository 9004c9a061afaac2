/**
 * @file
 * Suffix-array construction via the linear-time SA-IS algorithm
 * (Nong, Zhang, Chan 2009), plus a naive reference implementation used
 * to cross-check it in tests.
 *
 * The suffix array is built over the sentinel-terminated text T$ where
 * $ is lexicographically smallest, so SA[0] is always the sentinel
 * suffix and the array has |T|+1 entries.
 *
 * SA-IS works a word at a time where it can, and is one template over
 * the symbol type:
 *  - The top level reads the text as bytes, shifted up by one so the
 *    sentinel is 0; the reduced strings of deeper levels are u32.
 *  - Suffix types and LMS flags are bits in u64 words. Types come
 *    right to left from a branch-free compare, the LMS words from the
 *    type words by a one-bit shift with a carry, and LMS positions are
 *    visited by countr_zero over those words.
 *  - Each level counts its buckets once; every bucket start or end
 *    array is derived from those counts.
 *  - LMS substrings are named by length and memcmp: each length is read
 *    off the LMS words and kept in the slot sa[n1 + pos / 2].
 *
 * Scratch is about 5.3 bytes per base at the top level: the 4-byte
 * output, the 1-byte shifted text and 2 bits of flags. Deeper levels
 * reuse the output buffer. The reduced string lives in its tail and
 * the recursion sorts into its head. A level adds only its own flag
 * words and two arrays of one u32 per distinct name.
 */

#ifndef EXMA_FMINDEX_SUFFIX_ARRAY_HH
#define EXMA_FMINDEX_SUFFIX_ARRAY_HH

#include <vector>

#include "common/dna.hh"
#include "common/types.hh"

namespace exma {

/** Index type for suffix arrays; supports texts up to 4 Gbp. */
using SaIndex = u32;

/**
 * Build the suffix array of ref·$ with SA-IS.
 * @param ref DNA reference, 0..3 base codes.
 * @return SA of length |ref|+1; SA[0] == |ref| (the sentinel suffix).
 */
std::vector<SaIndex> buildSuffixArray(const std::vector<Base> &ref);

/**
 * Build a suffix array over an arbitrary small-alphabet string
 * (values in [0, sigma), sigma < 256), appending a unique sentinel
 * internally. Exposed for the FMD index, which uses a 6-symbol
 * alphabet.
 */
std::vector<SaIndex> buildSuffixArrayGeneric(const std::vector<u8> &text,
                                             u32 sigma);

/** O(n^2 log n) reference implementation for tests. */
std::vector<SaIndex> buildSuffixArrayNaive(const std::vector<Base> &ref);

} // namespace exma

#endif // EXMA_FMINDEX_SUFFIX_ARRAY_HH
