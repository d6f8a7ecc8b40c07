#include "nn/linear.h"

namespace uv::nn {

Linear::Linear(int in_dim, int out_dim, Rng* rng) {
  Tensor w(in_dim, out_dim);
  w.GlorotUniform(rng);
  w_ = ag::MakeParam(std::move(w));
  b_ = ag::MakeParam(Tensor(1, out_dim));
}

ag::VarPtr Linear::Forward(const ag::VarPtr& x, kern::Activation act,
                           float leaky_slope) const {
  return ag::DenseBiasAct(x, w_, b_, act, leaky_slope);
}

Mlp::Mlp(int in_dim, int hidden_dim, int out_dim, Rng* rng)
    : l1_(in_dim, hidden_dim, rng), l2_(hidden_dim, out_dim, rng) {}

ag::VarPtr Mlp::Forward(const ag::VarPtr& x) const {
  return l2_.Forward(l1_.Forward(x, kern::Activation::kRelu));
}

std::vector<ag::VarPtr> Mlp::Params() const {
  return {l1_.w(), l1_.b(), l2_.w(), l2_.b()};
}

}  // namespace uv::nn
