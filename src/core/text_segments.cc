#include "core/text_segments.hh"

#include "common/logging.hh"

namespace exma {

void
validateSegment(const TextSegment &slice, u64 ref_len)
{
    exma_assert(slice.length > 0, "text slice is empty");
    exma_assert(slice.local_begin == 0,
                "text slice begins at local %llu, expected 0",
                (unsigned long long)slice.local_begin);
    exma_assert(slice.global_end() <= ref_len,
                "text slice [%llu, %llu) runs past the %llu-base "
                "reference",
                (unsigned long long)slice.global_begin,
                (unsigned long long)slice.global_end(),
                (unsigned long long)ref_len);
}

std::vector<Base>
extractSegment(const std::vector<Base> &ref, const TextSegment &slice)
{
    return {ref.begin() + static_cast<std::ptrdiff_t>(slice.global_begin),
            ref.begin() + static_cast<std::ptrdiff_t>(slice.global_end())};
}

} // namespace exma
