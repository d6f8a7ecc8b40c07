#ifndef UV_NN_GSCM_H_
#define UV_NN_GSCM_H_

#include <vector>

#include "nn/maga.h"

namespace uv::nn {

// Global Semantic Clustering Module (paper Section V-A2, eq. 9-13):
// soft-assigns regions to K latent clusters, collects cluster
// representations through the *binarized* assignment (eq. 10), reasons over
// a complete learnable cluster graph (eq. 11), and shares global context
// back to regions through the *soft* assignment (eq. 12-13).
class Gscm {
 public:
  struct Options {
    int in_dim = 64;
    int num_clusters = 50;     // Paper K: 50 (SZ), 500 (FZ/BJ).
    float temperature = 0.1f;  // Softmax temperature tau (Section VI-A).
    AggKind agg = AggKind::kSum;  // Paper: sum (SZ/FZ) or concat (BJ).
  };

  Gscm(const Options& options, Rng* rng);

  struct Assignment {
    ag::VarPtr soft;        // B (N x K).
    std::vector<int> hard;  // argmax row of B (the binarized B~).
  };

  // Eq. 9 alone: B = softmax(x W_B / tau) and its row argmax. Row r depends
  // only on row r of x, so the freeze sweep runs it over the whole city's
  // trunk rows without the cluster tail.
  Assignment Assign(const ag::VarPtr& x) const;

  struct Output {
    ag::VarPtr assignment;             // Soft B (N x K).
    std::vector<int> hard_assignment;  // argmax row of B (the binarized B~).
    ag::VarPtr cluster_repr;           // H' (K x in_dim).
    ag::VarPtr region_repr;            // x~' (N x out_width()).
  };

  // Master-stage forward: the assignment is computed from x (Assign) and
  // trainable.
  Output Forward(const ag::VarPtr& x) const;

  // Slave-stage forward: region->cluster membership is frozen to the values
  // learned in the master stage (paper: "the membership of regions formed
  // by assignment matrix B is fixed").
  Output ForwardFrozen(const ag::VarPtr& x, const Tensor& frozen_soft,
                       const std::vector<int>& frozen_hard) const;

  // Raw parameter views for the inference engine's cached tail.
  const Tensor& reverse_transform() const { return w_r_->value; }
  const Tensor* agg_query_value() const {
    return agg_query_ ? &agg_query_->value : nullptr;
  }
  AggKind agg() const { return options_.agg; }

  int out_width() const {
    return options_.agg == AggKind::kConcat ? 2 * options_.in_dim
                                            : options_.in_dim;
  }
  int num_clusters() const { return options_.num_clusters; }

  std::vector<ag::VarPtr> Params() const;

 private:
  // Shared tail of both forwards, from (B, B~) to the output struct.
  Output Finish(const ag::VarPtr& x, ag::VarPtr assignment,
                std::vector<int> hard) const;

  Options options_;
  ag::VarPtr w_b_;     // (in_dim x K) assignment transform (eq. 9).
  ag::VarPtr edge_w_;  // (K x K) learnable complete cluster graph (eq. 11).
  ag::VarPtr w_h_;     // (in_dim x in_dim) cluster transform (eq. 11).
  ag::VarPtr w_r_;     // (in_dim x in_dim) reverse-sharing transform (eq. 12).
  ag::VarPtr agg_query_;
};

// Cluster pseudo labels (eq. 16): cluster k is positive iff it contains at
// least one labeled UV. `labels` uses -1 unlabeled / 0 non-UV / 1 UV.
std::vector<int> ComputeClusterPseudoLabels(
    const std::vector<int>& hard_assignment, const std::vector<int>& labels,
    int num_clusters);

}  // namespace uv::nn

#endif  // UV_NN_GSCM_H_
