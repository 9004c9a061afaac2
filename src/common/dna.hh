/**
 * @file
 * DNA alphabet utilities.
 *
 * Two codings are used throughout the code base:
 *  - base coding: A,C,G,T -> 0..3 (used for reads, k-mers, references);
 *  - BWT coding:  $,A,C,G,T -> 0..4 (used when a sentinel is required).
 *
 * k-mers are packed 2 bits per base with the FIRST base in the most
 * significant position, so unsigned integer order equals lexicographic
 * order for a fixed k.
 */

#ifndef EXMA_COMMON_DNA_HH
#define EXMA_COMMON_DNA_HH

#include <string>
#include <string_view>
#include <vector>

#include "common/types.hh"

namespace exma {

/** A single DNA base coded 0..3 (A,C,G,T). */
using Base = u8;

/** A packed k-mer, 2 bits per base, first base most significant. */
using Kmer = u64;

/** Number of plain DNA symbols. */
constexpr int kDnaAlphabet = 4;

/** Number of BWT symbols ($,A,C,G,T). */
constexpr int kBwtAlphabet = 5;

/**
 * Largest k a k-mer table (KmerOccTable, IpBwt) supports. A window
 * that holds the sentinel is coded in base 5 ($,A,C,G,T), and that
 * code must fit a u64: 5^27 < 2^64 < 5^28.
 */
constexpr int kMaxKmerLen = 27;

/** Character for each base code. */
constexpr char kBaseChars[kDnaAlphabet] = {'A', 'C', 'G', 'T'};

/**
 * Map an ASCII base character to its 0..3 code.
 * Unknown/ambiguous characters (e.g.\ 'N') map to 0 ('A').
 */
inline Base
charToBase(char c)
{
    switch (c) {
        case 'A': case 'a': return 0;
        case 'C': case 'c': return 1;
        case 'G': case 'g': return 2;
        case 'T': case 't': return 3;
        default: return 0;
    }
}

/** Map a 0..3 base code back to its ASCII character. */
inline char
baseToChar(Base b)
{
    return kBaseChars[b & 3];
}

/** Watson-Crick complement of a 0..3 base code. */
inline Base
complementBase(Base b)
{
    return static_cast<Base>(3 - b);
}

/** Encode an ASCII DNA string into 0..3 base codes. */
std::vector<Base> encodeSeq(std::string_view s);

/** Decode 0..3 base codes into an ASCII DNA string. */
std::string decodeSeq(const std::vector<Base> &seq);

/** Reverse complement of a base-coded sequence. */
std::vector<Base> reverseComplement(const std::vector<Base> &seq);

/** Pack k bases (first base most significant) into an integer k-mer. */
inline Kmer
packKmer(const Base *bases, int k)
{
    Kmer m = 0;
    for (int i = 0; i < k; ++i)
        m = (m << 2) | (bases[i] & 3);
    return m;
}

/** Unpack an integer k-mer into k base codes. */
inline void
unpackKmer(Kmer m, int k, Base *out)
{
    for (int i = k - 1; i >= 0; --i) {
        out[i] = static_cast<Base>(m & 3);
        m >>= 2;
    }
}

/** Human-readable form of a packed k-mer. */
std::string kmerToString(Kmer m, int k);

/** Number of distinct k-mers for a given k (4^k). */
inline u64
kmerSpace(int k)
{
    return u64{1} << (2 * k);
}

} // namespace exma

#endif // EXMA_COMMON_DNA_HH
