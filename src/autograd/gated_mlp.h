#ifndef UV_AUTOGRAD_GATED_MLP_H_
#define UV_AUTOGRAD_GATED_MLP_H_

#include <vector>

#include "autograd/variable.h"

namespace uv::ag {

// Fused forward/backward for the contextual master-slave gate (paper eq.
// 20-22): every region i gets its own slave classifier whose parameters
// are the master 2-layer MLP parameters elementwise-multiplied by a
// region-specific filter F_i = sigmoid(context_i W_f + b_f) in (0,1)^P.
//
// The filter layout per region is the flattened parameter vector of the
// classifier, in this order:
//   [ W1 (d_in*d_hidden) | b1 (d_hidden) | W2 (d_hidden) | b2 (1) ]
// so P = d_in*d_hidden + 2*d_hidden + 1 = GatedMlpFilterSize(...).
//
// Computes, per region i:
//   logit_i = relu(x_i (F_i^W1 ∘ W1) + F_i^b1 ∘ b1) (F_i^W2 ∘ W2)
//             + F_i^b2 * b2
// The filter is derived kGatedMlpTileRows rows at a time
// (tensor/forward_ops.h) and never stored: the node keeps only the N x
// d_hidden hidden activations, and backward recomputes the filter rows of
// the rows whose upstream gradient is nonzero, one tile at a time.
// Gradients flow into all eight inputs.
int GatedMlpFilterSize(int d_in, int d_hidden);

// x: (N x d_in), context: (N x c), w_f: (c x P), b_f: (1 x P),
// w1: (d_in x d_hidden), b1: (1 x d_hidden), w2: (d_hidden x 1),
// b2: (1 x 1). Returns (N x 1) logits. With `rows`, only those rows are
// computed and every other logit is zero, which the backward treats as it
// treats any row whose upstream gradient is zero: pass exactly the rows
// the loss reads.
VarPtr GatedMlp(const VarPtr& x, const VarPtr& context, const VarPtr& w_f,
                const VarPtr& b_f, const VarPtr& w1, const VarPtr& b1,
                const VarPtr& w2, const VarPtr& b2,
                const std::vector<int>* rows = nullptr);

}  // namespace uv::ag

#endif  // UV_AUTOGRAD_GATED_MLP_H_
