#ifndef UV_NN_LINEAR_H_
#define UV_NN_LINEAR_H_

#include <vector>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "util/rng.h"

namespace uv::nn {

// Affine layer y = xW + b with Glorot-initialized weights.
class Linear {
 public:
  Linear(int in_dim, int out_dim, Rng* rng);

  // act(xW + b) in one fused kernel pass (ag::DenseBiasAct).
  ag::VarPtr Forward(const ag::VarPtr& x,
                     kern::Activation act = kern::Activation::kNone,
                     float leaky_slope = 0.0f) const;

  std::vector<ag::VarPtr> Params() const { return {w_, b_}; }
  const ag::VarPtr& w() const { return w_; }
  const ag::VarPtr& b() const { return b_; }

 private:
  ag::VarPtr w_;
  ag::VarPtr b_;
};

// Two-layer perceptron with ReLU, the paper's classifier shape
// ("a 2-layer Multi-Layer Perceptron").
class Mlp {
 public:
  Mlp(int in_dim, int hidden_dim, int out_dim, Rng* rng);

  ag::VarPtr Forward(const ag::VarPtr& x) const;

  std::vector<ag::VarPtr> Params() const;
  const Linear& layer1() const { return l1_; }
  const Linear& layer2() const { return l2_; }

 private:
  Linear l1_;
  Linear l2_;
};

}  // namespace uv::nn

#endif  // UV_NN_LINEAR_H_
