/**
 * @file
 * Closed-form least-squares linear regression — the leaf-node model of
 * every learned index in the paper ("we deploy simple linear regression
 * models as leaf nodes ... a linear regression model contains only one
 * weight and one bias", §IV.B).
 */

#ifndef EXMA_LEARNED_LINEAR_MODEL_HH
#define EXMA_LEARNED_LINEAR_MODEL_HH

#include <cmath>
#include <span>

#include "common/types.hh"

namespace exma {

struct LinearModel
{
    double w = 0.0;
    double b = 0.0;

    double predict(double x) const { return w * x + b; }

    /** Number of trainable parameters (always 2). */
    static constexpr u64 paramCount() { return 2; }

    /** Least-squares fit over explicit (xs[i], ys[i]) pairs. */
    static LinearModel
    fitXY(std::span<const double> xs, std::span<const double> ys)
    {
        LinearModel m;
        const size_t n = xs.size();
        if (n == 0)
            return m;
        double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
        for (size_t i = 0; i < n; ++i) {
            sx += xs[i];
            sy += ys[i];
            sxx += xs[i] * xs[i];
            sxy += xs[i] * ys[i];
        }
        const double dn = static_cast<double>(n);
        const double den = dn * sxx - sx * sx;
        if (std::abs(den) < 1e-12) {
            m.w = 0.0;
            m.b = sy / dn;
        } else {
            m.w = (dn * sxy - sx * sy) / den;
            m.b = (sy - m.w * sx) / dn;
        }
        return m;
    }
};

} // namespace exma

#endif // EXMA_LEARNED_LINEAR_MODEL_HH
