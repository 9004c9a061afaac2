#include "core/text_segments.hh"

namespace exma {

bool
sliceFits(const TextSegment &slice, u64 ref_len)
{
    return slice.length > 0 && slice.global_begin < ref_len &&
           slice.length <= ref_len - slice.global_begin;
}

std::vector<Base>
extractSegment(const std::vector<Base> &ref, const TextSegment &slice)
{
    return {ref.begin() + static_cast<std::ptrdiff_t>(slice.global_begin),
            ref.begin() + static_cast<std::ptrdiff_t>(slice.global_end())};
}

} // namespace exma
