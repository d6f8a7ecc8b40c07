#ifndef UV_NN_MS_GATE_H_
#define UV_NN_MS_GATE_H_

#include <vector>

#include "autograd/gated_mlp.h"
#include "nn/linear.h"

namespace uv::nn {

// Contextual master-slave gating mechanism (paper Section V-B, eq. 17-22):
// estimates each cluster's UV-inclusion probability with a logistic
// pseudo-label predictor, forms the region context vector from the soft
// assignment and the inclusion probabilities, and derives a region-specific
// parameter filter that gates the master classifier into a slave model.
class MsGate {
 public:
  struct Options {
    int num_clusters = 50;
    int cluster_repr_dim = 64;  // Width of GSCM cluster representations.
    int context_dim = 16;       // Width of the region context vector q_i.
    int classifier_in = 64;     // Master classifier input width.
    int classifier_hidden = 32; // Master classifier hidden width.
  };

  MsGate(const Options& options, Rng* rng);

  // Inclusion probabilities: sigmoid LR over cluster representations
  // (eq. 17); result is (K x 1) in (0, 1).
  ag::VarPtr EstimateInclusion(const ag::VarPtr& cluster_repr) const;

  // Derives slave models and returns per-region logits (eq. 19-22).
  // `region_repr` (N x classifier_in), `assignment` soft B (N x K),
  // `inclusion` (K x 1), `master` the 2-layer master classifier whose
  // parameters are gated. With `rows`, only those logits are computed
  // (ag::GatedMlp) and the rest are zero.
  ag::VarPtr Forward(const ag::VarPtr& region_repr,
                     const ag::VarPtr& assignment, const ag::VarPtr& inclusion,
                     const Mlp& master,
                     const std::vector<int>* rows = nullptr) const;

  // Region context vectors q_i (N x context_dim), exposed for tests.
  ag::VarPtr ContextVector(const ag::VarPtr& assignment,
                           const ag::VarPtr& inclusion) const;

  // Raw parameter views for the inference engine's cached tail.
  const Tensor& context_transform() const { return w_q_->value; }
  const Tensor& filter_weight() const { return w_f_->value; }
  const Tensor& filter_bias() const { return b_f_->value; }

  std::vector<ag::VarPtr> Params() const;

 private:
  Options options_;
  Linear pseudo_predictor_;  // LR over cluster representations.
  ag::VarPtr w_q_;           // (K x context_dim), eq. 19.
  ag::VarPtr w_f_;           // (context_dim x P), eq. 20.
  // Bias of the filter map. Initialized positive so the initial filter is
  // close to 1 and the slave model starts as (approximately) the pre-trained
  // master, which the short slave stage then specializes per region.
  ag::VarPtr b_f_;
};

}  // namespace uv::nn

#endif  // UV_NN_MS_GATE_H_
