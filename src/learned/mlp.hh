/**
 * @file
 * A tiny multi-layer perceptron used as the non-leaf node of learned
 * indexes: one fully-connected hidden layer of sigmoid neurons and a
 * linear output ("each non-leaf node is a neural network having a
 * fully-connected layer, each of which contains 10 neurons with sigmoid
 * activation", §IV.B). Trained with Adam, as in the paper.
 */

#ifndef EXMA_LEARNED_MLP_HH
#define EXMA_LEARNED_MLP_HH

#include <vector>

#include "common/types.hh"

namespace exma {

class Mlp
{
  public:
    /** One training sample: up to two inputs and a scalar target. */
    struct Sample
    {
        double x0 = 0.0;
        double x1 = 0.0;
        double y = 0.0;
    };

    /**
     * @param in_dim 1 or 2 inputs.
     * @param hidden hidden-layer width (paper: 10).
     * @param seed   weight-initialisation seed.
     */
    Mlp(int in_dim, int hidden, u64 seed);

    /** Forward pass; @p x1 ignored when in_dim == 1. */
    double predict(double x0, double x1 = 0.0) const;

    /**
     * Minimise MSE over @p samples with the Adam optimiser.
     * @return final training loss.
     */
    double train(const std::vector<Sample> &samples, int epochs,
                 double lr = 0.01);

    /** Weights + biases of both layers. */
    u64 paramCount() const;

  private:
    int in_dim_;
    int hidden_;
    std::vector<double> w1_; ///< hidden x in_dim
    std::vector<double> b1_; ///< hidden
    std::vector<double> w2_; ///< hidden
    double b2_ = 0.0;
};

} // namespace exma

#endif // EXMA_LEARNED_MLP_HH
