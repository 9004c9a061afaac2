#include "common/stats.hh"

#include <algorithm>

namespace exma {

PercentileSummary
summarize(std::vector<double> samples)
{
    PercentileSummary s;
    if (samples.empty())
        return s;
    std::sort(samples.begin(), samples.end());
    auto at = [&](double q) {
        double idx = q * static_cast<double>(samples.size() - 1);
        size_t lo = static_cast<size_t>(idx);
        size_t hi = std::min(lo + 1, samples.size() - 1);
        double frac = idx - static_cast<double>(lo);
        return samples[lo] * (1.0 - frac) + samples[hi] * frac;
    };
    s.min = samples.front();
    s.max = samples.back();
    s.p25 = at(0.25);
    s.p50 = at(0.50);
    s.p75 = at(0.75);
    double sum = 0.0;
    for (double v : samples)
        sum += v;
    s.mean = sum / static_cast<double>(samples.size());
    s.count = samples.size();
    return s;
}

} // namespace exma
