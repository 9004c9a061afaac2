#include "common/bitvector.hh"

#include <bit>

#include "common/logging.hh"

namespace exma {

BitVector::BitVector(u64 n)
    : n_bits_(n), words_(std::vector<u64>((n + 63) / 64, 0))
{
}

BitVector::BitVector(u64 n_bits, u64 ones, Storage<u64> words,
                     Storage<u64> super)
    : n_bits_(n_bits), ones_(ones), words_(std::move(words)),
      super_(std::move(super))
{
    exma_assert(words_.size() == (n_bits_ + 63) / 64,
                "bitvector restore: %llu words cannot cover %llu bits",
                (unsigned long long)words_.size(),
                (unsigned long long)n_bits_);
    exma_assert(super_.size() == (words_.size() + 7) / 8 + 1,
                "bitvector restore: rank checkpoint array truncated");
    exma_assert(super_[super_.size() - 1] == ones_,
                "bitvector restore: checkpoint total disagrees with ones");
}

void
BitVector::set(u64 i)
{
    exma_assert(i < n_bits_, "bit index %llu out of range %llu",
                (unsigned long long)i, (unsigned long long)n_bits_);
    words_.mutableData()[i >> 6] |= (u64{1} << (i & 63));
}

void
BitVector::buildRank()
{
    const u64 n_blocks = (words_.size() + 7) / 8;
    std::vector<u64> super(n_blocks + 1, 0);
    u64 acc = 0;
    for (u64 b = 0; b < n_blocks; ++b) {
        super[b] = acc;
        const u64 lo = b * 8;
        const u64 hi = std::min<u64>(lo + 8, words_.size());
        for (u64 w = lo; w < hi; ++w)
            acc += static_cast<u64>(std::popcount(words_[w]));
    }
    super[n_blocks] = acc;
    ones_ = acc;
    super_ = Storage<u64>(std::move(super));
}

u64
BitVector::sizeBytes() const
{
    return words_.size() * 8 + super_.size() * 8 + sizeof(*this);
}

} // namespace exma
