/**
 * @file
 * A two-level recursive-model index (Kraska et al.) over a sorted key
 * span: a root model (linear or MLP) routes a key to one of many
 * linear-regression leaves; the leaf predicts the key's rank; an
 * instrumented galloping search recovers the exact lower bound and
 * reports the prediction error and probe count (the quantities plotted
 * in the paper's Fig. 6c and Fig. 13).
 *
 * Leaves are assigned by the *root's* prediction (not by true rank), so
 * a query key always evaluates the leaf that was fitted on its own
 * neighbourhood — the property that makes finer leaves monotonically
 * more accurate. Leaf fits use accumulated least-squares moments, so
 * construction is a single O(n) pass with O(#leaves) memory.
 *
 * The pieces every learned index here shares are free functions, so
 * each exists once: leafOf() routes a root prediction to a leaf,
 * solveLeaves() fits the leaves (filling empty ones), clampRank() turns
 * a leaf's prediction into a rank, and gallopLowerBound() corrects it.
 * Rmi uses them, and so does MtlIndex, whose shared root routes to
 * per-k-mer leaves.
 */

#ifndef EXMA_LEARNED_RMI_HH
#define EXMA_LEARNED_RMI_HH

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <vector>

#include "common/search_stats.hh"
#include "common/types.hh"
#include "learned/linear_model.hh"
#include "learned/mlp.hh"

namespace exma {

/**
 * Least-squares moment accumulator for one leaf. Moments are anchored
 * at the first sample's x (and y) to avoid catastrophic cancellation
 * when a leaf covers a very narrow slice of the normalised key range.
 */
struct LeafMoments
{
    double n = 0.0, sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
    double x0 = 0.0, y0 = 0.0;
    double ymin = 0.0, ymax = 0.0;

    void
    add(double x, double y)
    {
        if (n < 0.5) {
            x0 = x;
            y0 = y;
            ymin = ymax = y;
        } else {
            ymin = std::min(ymin, y);
            ymax = std::max(ymax, y);
        }
        const double u = x - x0;
        const double v = y - y0;
        n += 1.0;
        sx += u;
        sy += v;
        sxx += u * u;
        sxy += u * v;
    }

    LinearModel
    solve() const
    {
        LinearModel m;
        if (n < 0.5)
            return m;
        const double den = n * sxx - sx * sx;
        double w, b_local;
        if (std::abs(den) < 1e-30) {
            w = 0.0;
            b_local = sy / n;
        } else {
            w = (n * sxy - sx * sy) / den;
            b_local = (sy - w * sx) / n;
        }
        // Undo the anchoring: y = w·(x - x0) + b_local + y0.
        m.w = w;
        m.b = b_local + y0 - w * x0;
        return m;
    }
};

/**
 * A linear leaf whose prediction is clamped to the rank range the leaf
 * observed at build time. With (near-)monotone root routing, the true
 * rank of any key routed here lies within one position of that range,
 * so clamping bounds the error by the leaf's occupancy — the property
 * that makes finer leaves monotonically more accurate.
 */
struct ClampedLeaf
{
    LinearModel model;
    double ymin = 0.0;
    double ymax = 0.0;

    double
    predict(double x) const
    {
        return std::clamp(model.predict(x), ymin, ymax);
    }

    static ClampedLeaf
    from(const LeafMoments &acc)
    {
        return ClampedLeaf{acc.solve(), acc.ymin, acc.ymax};
    }
};

/**
 * Fit every leaf from its moments. A leaf no key was routed to takes
 * the next fitted leaf, and trailing empty leaves take the last one, so
 * every leaf predicts from real keys; with no key at all every leaf
 * stays default.
 */
inline std::vector<ClampedLeaf>
solveLeaves(std::span<const LeafMoments> acc)
{
    const auto fitted = [](const LeafMoments &m) { return m.n >= 0.5; };
    std::vector<ClampedLeaf> leaves(acc.size());
    ClampedLeaf next;
    const auto last = std::find_if(acc.rbegin(), acc.rend(), fitted);
    if (last != acc.rend())
        next = ClampedLeaf::from(*last);
    for (size_t j = acc.size(); j-- > 0;) {
        if (fitted(acc[j]))
            next = ClampedLeaf::from(acc[j]);
        leaves[j] = next;
    }
    return leaves;
}

/**
 * The leaf a root prediction @p q (a quantile, nominally in [0, 1))
 * routes to among @p n_leaves >= 1: q <= 0 goes to the first leaf and
 * q >= 1 to the last. Build and query route through this alone.
 */
inline u64
leafOf(double q, u64 n_leaves)
{
    if (q <= 0.0)
        return 0;
    if (q >= 1.0)
        return n_leaves - 1;
    const u64 j = static_cast<u64>(q * static_cast<double>(n_leaves));
    return std::min(j, n_leaves - 1);
}

/** A leaf's rank prediction @p p as a start position in [0, @p n]. */
inline u64
clampRank(double p, u64 n)
{
    if (p <= 0.0)
        return 0;
    if (p >= static_cast<double>(n))
        return n;
    return static_cast<u64>(p);
}

/**
 * Lower bound of @p key in sorted @p keys, searched from the estimate
 * @p start (clamped to the size): gallop away from it with doubling
 * steps until the answer is bracketed, then binary-search the bracket.
 * Every key comparison is added to @p probes — the "linear search over
 * the increments" cost the paper charges against a misprediction.
 */
template <typename K>
u64
gallopLowerBound(std::span<const K> keys, K key, u64 start, u64 &probes)
{
    const u64 n = keys.size();
    u64 lo = 0, hi = n;
    if (start > n)
        start = n;
    if (start < n && (++probes, keys[start] < key)) {
        u64 step = 1;
        lo = start + 1;
        while (lo + step < n && (++probes, keys[lo + step] < key)) {
            lo += step + 1;
            step <<= 1;
        }
        hi = std::min(n, lo + step + 1);
    } else {
        u64 step = 1;
        hi = start;
        while (hi > step && (++probes, keys[hi - step] >= key)) {
            hi -= step;
            step <<= 1;
        }
        lo = hi > step ? hi - step : 0;
    }
    while (lo < hi) {
        const u64 mid = lo + (hi - lo) / 2;
        ++probes;
        if (keys[mid] < key)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

template <typename K>
class Rmi
{
  public:
    struct Config
    {
        u64 leaf_size = 4096; ///< average entries per linear leaf
        bool mlp_root = false; ///< MLP root instead of a linear root
        int hidden = 10;       ///< MLP hidden width (paper: 10)
        int epochs = 40;
        u64 train_cap = 512;   ///< root training subsample size
        double lr = 0.05;
        u64 seed = 1;
    };

    Rmi() = default;

    /** Build over @p keys (sorted ascending; not owned). */
    void
    build(std::span<const K> keys, const Config &cfg)
    {
        keys_ = keys;
        cfg_ = cfg;
        const u64 n = keys_.size();
        leaves_.clear();
        root_mlp_.reset();
        if (n == 0)
            return;

        lo_ = static_cast<double>(keys_.front());
        const double hi = static_cast<double>(keys_.back());
        scale_ = hi > lo_ ? 1.0 / (hi - lo_) : 0.0;

        // Root: predict rank/n from the normalised key.
        const u64 stride =
            std::max<u64>(1, n / std::max<u64>(1, cfg.train_cap));
        std::vector<double> rx, ry;
        for (u64 i = 0; i < n; i += stride) {
            rx.push_back(norm(keys_[i]));
            ry.push_back(static_cast<double>(i) / static_cast<double>(n));
        }
        if (cfg.mlp_root) {
            root_mlp_.emplace(1, cfg.hidden, cfg.seed);
            std::vector<Mlp::Sample> samples(rx.size());
            for (size_t i = 0; i < rx.size(); ++i)
                samples[i] = {rx[i], 0.0, ry[i]};
            root_mlp_->train(samples, cfg.epochs, cfg.lr);
        } else {
            root_lin_ = LinearModel::fitXY(rx, ry);
        }

        // Leaves: every key is assigned by the root's own routing, so
        // queries always hit the leaf trained on their neighbourhood.
        const u64 n_leaves = (n + cfg.leaf_size - 1) / cfg.leaf_size;
        std::vector<LeafMoments> acc(n_leaves);
        for (u64 i = 0; i < n; ++i) {
            const double x = norm(keys_[i]);
            acc[route(x, n_leaves)].add(x, static_cast<double>(i));
        }
        leaves_ = solveLeaves(acc);
    }

    /** Model-predicted rank of @p key (no correction). */
    u64
    predict(K key) const
    {
        const u64 n = keys_.size();
        if (n == 0 || leaves_.empty())
            return 0;
        const double x = norm(key);
        return clampRank(leaves_[route(x, leaves_.size())].predict(x), n);
    }

    /**
     * Exact lower-bound rank with error/probe instrumentation: `error`
     * is |predicted - exact| (the extra entries searched) and `probes`
     * the key comparisons of the correction.
     */
    IndexLookup
    lookup(K key) const
    {
        IndexLookup res;
        res.used_model = true;
        const u64 n = keys_.size();
        if (n == 0)
            return res;
        const u64 p = predict(key);
        res.rank = gallopLowerBound(keys_, key, p, res.probes);
        res.error = res.rank > p ? res.rank - p : p - res.rank;
        return res;
    }

    u64
    paramCount() const
    {
        u64 params = leaves_.size() * LinearModel::paramCount();
        params += root_mlp_ ? root_mlp_->paramCount()
                            : LinearModel::paramCount();
        return params;
    }

    u64 leafCount() const { return leaves_.size(); }
    u64 size() const { return keys_.size(); }

  private:
    double
    norm(K key) const
    {
        return (static_cast<double>(key) - lo_) * scale_;
    }

    /** Root routing shared by build and query. */
    u64
    route(double x, u64 n_leaves) const
    {
        return leafOf(root_mlp_ ? root_mlp_->predict(x)
                                : root_lin_.predict(x),
                      n_leaves);
    }

    std::span<const K> keys_;
    Config cfg_;
    double lo_ = 0.0;
    double scale_ = 0.0;
    LinearModel root_lin_;
    std::optional<Mlp> root_mlp_;
    std::vector<ClampedLeaf> leaves_;
};

} // namespace exma

#endif // EXMA_LEARNED_RMI_HH
