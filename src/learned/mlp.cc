#include "learned/mlp.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"

namespace exma {
namespace {

inline double
sigmoid(double z)
{
    return 1.0 / (1.0 + std::exp(-z));
}

/** Adam state for one parameter vector. */
struct AdamState
{
    std::vector<double> m;
    std::vector<double> v;

    explicit AdamState(size_t n) : m(n, 0.0), v(n, 0.0) {}

    void
    step(std::vector<double> &theta, const std::vector<double> &grad,
         double lr, int t)
    {
        constexpr double beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
        const double bc1 = 1.0 - std::pow(beta1, t);
        const double bc2 = 1.0 - std::pow(beta2, t);
        for (size_t i = 0; i < theta.size(); ++i) {
            m[i] = beta1 * m[i] + (1.0 - beta1) * grad[i];
            v[i] = beta2 * v[i] + (1.0 - beta2) * grad[i] * grad[i];
            theta[i] -= lr * (m[i] / bc1) / (std::sqrt(v[i] / bc2) + eps);
        }
    }
};

} // namespace

Mlp::Mlp(int in_dim, int hidden, u64 seed)
    : in_dim_(in_dim), hidden_(hidden),
      w1_(static_cast<size_t>(hidden * in_dim)),
      b1_(static_cast<size_t>(hidden), 0.0),
      w2_(static_cast<size_t>(hidden))
{
    exma_assert(in_dim == 1 || in_dim == 2, "in_dim must be 1 or 2");
    exma_assert(hidden >= 1, "hidden width must be positive");
    Rng rng(seed);
    for (auto &w : w1_)
        w = rng.normal(0.0, 1.0);
    for (auto &w : w2_)
        w = rng.normal(0.0, 0.5);
}

double
Mlp::predict(double x0, double x1) const
{
    double out = b2_;
    for (int h = 0; h < hidden_; ++h) {
        double z = b1_[static_cast<size_t>(h)] +
                   w1_[static_cast<size_t>(h * in_dim_)] * x0;
        if (in_dim_ == 2)
            z += w1_[static_cast<size_t>(h * in_dim_ + 1)] * x1;
        out += w2_[static_cast<size_t>(h)] * sigmoid(z);
    }
    return out;
}

double
Mlp::train(const std::vector<Sample> &samples, int epochs, double lr)
{
    if (samples.empty())
        return 0.0;

    // Flatten parameters into one vector for a single Adam instance.
    const size_t nw1 = w1_.size(), nb1 = b1_.size(), nw2 = w2_.size();
    const size_t total = nw1 + nb1 + nw2 + 1;
    std::vector<double> theta(total);
    auto pack = [&] {
        size_t o = 0;
        for (double w : w1_) theta[o++] = w;
        for (double b : b1_) theta[o++] = b;
        for (double w : w2_) theta[o++] = w;
        theta[o] = b2_;
    };
    auto unpack = [&] {
        size_t o = 0;
        for (double &w : w1_) w = theta[o++];
        for (double &b : b1_) b = theta[o++];
        for (double &w : w2_) w = theta[o++];
        b2_ = theta[o];
    };
    pack();

    AdamState adam(total);
    std::vector<double> grad(total);
    std::vector<double> act(static_cast<size_t>(hidden_));
    double loss = 0.0;
    int t = 0;

    for (int e = 0; e < epochs; ++e) {
        unpack();
        std::fill(grad.begin(), grad.end(), 0.0);
        loss = 0.0;
        for (const Sample &s : samples) {
            // Forward.
            double out = b2_;
            for (int h = 0; h < hidden_; ++h) {
                double z = b1_[static_cast<size_t>(h)] +
                           w1_[static_cast<size_t>(h * in_dim_)] * s.x0;
                if (in_dim_ == 2)
                    z += w1_[static_cast<size_t>(h * in_dim_ + 1)] * s.x1;
                act[static_cast<size_t>(h)] = sigmoid(z);
                out += w2_[static_cast<size_t>(h)] *
                       act[static_cast<size_t>(h)];
            }
            // Backward (MSE).
            const double err = out - s.y;
            loss += err * err;
            size_t o = 0;
            for (int h = 0; h < hidden_; ++h) {
                const double a = act[static_cast<size_t>(h)];
                const double da =
                    err * w2_[static_cast<size_t>(h)] * a * (1.0 - a);
                grad[o + static_cast<size_t>(h * in_dim_)] += da * s.x0;
                if (in_dim_ == 2)
                    grad[o + static_cast<size_t>(h * in_dim_ + 1)] +=
                        da * s.x1;
            }
            o += nw1;
            for (int h = 0; h < hidden_; ++h) {
                const double a = act[static_cast<size_t>(h)];
                grad[o + static_cast<size_t>(h)] +=
                    err * w2_[static_cast<size_t>(h)] * a * (1.0 - a);
            }
            o += nb1;
            for (int h = 0; h < hidden_; ++h)
                grad[o + static_cast<size_t>(h)] +=
                    err * act[static_cast<size_t>(h)];
            o += nw2;
            grad[o] += err;
        }
        const double scale = 2.0 / static_cast<double>(samples.size());
        for (double &g : grad)
            g *= scale;
        adam.step(theta, grad, lr, ++t);
    }
    unpack();
    return loss / static_cast<double>(samples.size());
}

u64
Mlp::paramCount() const
{
    return w1_.size() + b1_.size() + w2_.size() + 1;
}

} // namespace exma
