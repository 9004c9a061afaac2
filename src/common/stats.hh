/**
 * @file
 * Percentile summaries of sample sets, for the benches' error-box
 * figures.
 */

#ifndef EXMA_COMMON_STATS_HH
#define EXMA_COMMON_STATS_HH

#include <vector>

#include "common/types.hh"

namespace exma {

/**
 * Percentile summary of a sample set (used for the error-box figures).
 */
struct PercentileSummary
{
    double min = 0.0;
    double p25 = 0.0;
    double p50 = 0.0;
    double p75 = 0.0;
    double max = 0.0;
    double mean = 0.0;
    u64 count = 0;
};

/** Compute min/25/50/75/max/mean of @p samples (copied and sorted). */
PercentileSummary summarize(std::vector<double> samples);

} // namespace exma

#endif // EXMA_COMMON_STATS_HH
