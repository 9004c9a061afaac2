#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "fmindex/packed_rank.hh"
#include "fmindex/suffix_array.hh"

namespace exma {
namespace {

/** A real BWT (exactly one sentinel) of a random reference. */
std::vector<u8>
randomBwt(u64 ref_len, u64 seed)
{
    Rng rng(seed);
    std::vector<Base> ref(ref_len);
    for (auto &b : ref)
        b = static_cast<Base>(rng.below(4));
    const std::vector<SaIndex> sa = buildSuffixArray(ref);
    std::vector<u8> bwt(sa.size());
    for (u64 i = 0; i < sa.size(); ++i)
        bwt[i] = sa[i] == 0 ? u8{0} : static_cast<u8>(ref[sa[i] - 1] + 1);
    return bwt;
}

/** occ and symAt vs the byte scan, every symbol at every position. */
void
expectMatchesScan(const std::vector<u8> &bwt)
{
    const PackedRank rank{std::span<const u8>(bwt)};
    ASSERT_EQ(rank.size(), bwt.size());
    for (u64 row = 0; row < bwt.size(); ++row)
        ASSERT_EQ(rank.symAt(row), bwt[row]) << "row " << row;
    for (u8 sym = 0; sym <= 4; ++sym) {
        u64 expect = 0; // incremental scan keeps the check O(n) per sym
        for (u64 i = 0; i <= bwt.size(); ++i) {
            ASSERT_EQ(rank.occ(sym, i), expect)
                << "sym " << int(sym) << " i " << i;
            if (i < bwt.size())
                expect += bwt[i] == sym;
        }
    }
}

TEST(PackedRank, MatchesByteScanOnRealBwts)
{
    // Lengths straddling the 64-symbol block geometry (the BWT of an
    // n-base reference has n + 1 rows).
    for (u64 ref_len : {1u, 62u, 63u, 64u, 65u, 127u, 128u, 500u, 1000u})
        expectMatchesScan(randomBwt(ref_len, 7 + ref_len));
}

TEST(PackedRank, MatchesByteScanOnArbitrarySymbolStreams)
{
    // Not a real BWT: random symbols with the sentinel at a chosen row
    // (front, block boundaries, back) — exercises the primary-row
    // correction at every alignment.
    Rng rng(41);
    for (u64 n : {5u, 64u, 65u, 192u, 321u}) {
        for (u64 sentinel_at : {u64{0}, n / 2, n - 1}) {
            std::vector<u8> bwt(n);
            for (auto &s : bwt)
                s = static_cast<u8>(1 + rng.below(4));
            bwt[sentinel_at] = 0;
            expectMatchesScan(bwt);
        }
    }
}

TEST(PackedRank, MatchesByteScanOnHomopolymerBlocks)
{
    // One repeated symbol matches every lane of both words of a block,
    // so occ() counts a combined marker word with all 64 bits set, which
    // random streams never produce; period-4 ACGT matches every fourth
    // lane. The sentinel sits at the front, the middle or the end.
    for (u64 n : {63u, 64u, 65u, 127u, 128u, 129u, 256u}) {
        for (u64 sentinel_at : {u64{0}, n / 2, n - 1}) {
            for (u8 sym = 1; sym <= 4; ++sym) {
                std::vector<u8> bwt(n, sym);
                bwt[sentinel_at] = 0;
                expectMatchesScan(bwt);
            }
            std::vector<u8> bwt(n);
            for (u64 i = 0; i < n; ++i)
                bwt[i] = static_cast<u8>(1 + i % 4);
            bwt[sentinel_at] = 0;
            expectMatchesScan(bwt);
        }
    }
}

TEST(PackedRank, SentinelFreeStreamHasZeroSentinelOcc)
{
    Rng rng(43);
    std::vector<u8> bwt(130);
    for (auto &s : bwt)
        s = static_cast<u8>(1 + rng.below(4));
    const PackedRank rank{std::span<const u8>(bwt)};
    EXPECT_EQ(rank.occ(0, bwt.size()), 0u);
    expectMatchesScan(bwt);
}

TEST(PackedRank, EmptyStream)
{
    const PackedRank rank{std::span<const u8>()};
    EXPECT_EQ(rank.size(), 0u);
    for (u8 sym = 0; sym <= 4; ++sym)
        EXPECT_EQ(rank.occ(sym, 0), 0u);
}

TEST(PackedRank, OneOccResolutionTouchesOneBlock)
{
    // Layout guard for the cache-line claim: 32-byte blocks, two per
    // 64-byte line, geometry fixed at 64 symbols.
    EXPECT_EQ(PackedRank::kBlockSymbols, 64u);
    const auto bwt = randomBwt(4096, 11);
    const PackedRank rank{std::span<const u8>(bwt)};
    // ~0.5 byte/symbol (2-bit data + 16B checkpoints per 64 symbols).
    EXPECT_LE(rank.sizeBytes(), (bwt.size() / 64 + 1) * 32);
}

} // namespace
} // namespace exma
