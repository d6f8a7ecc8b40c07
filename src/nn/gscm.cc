#include "nn/gscm.h"

#include "tensor/tensor_ops.h"
#include "util/check.h"

namespace uv::nn {

Gscm::Gscm(const Options& options, Rng* rng) : options_(options) {
  UV_CHECK_GT(options.num_clusters, 1);
  UV_CHECK(options.temperature > 0.0f);
  const int d = options.in_dim;
  const int k = options.num_clusters;
  Tensor wb(d, k), ew(k, k), wh(d, d), wr(d, d);
  wb.GlorotUniform(rng);
  // The complete cluster graph starts near-uniform with small noise so
  // early training does not favour arbitrary cluster pairs.
  ew.Fill(1.0f / static_cast<float>(k));
  Tensor noise(k, k);
  noise.RandomNormal(rng, 0.01f);
  Axpy(1.0f, noise, &ew);
  wh.GlorotUniform(rng);
  wr.GlorotUniform(rng);
  w_b_ = ag::MakeParam(std::move(wb));
  edge_w_ = ag::MakeParam(std::move(ew));
  w_h_ = ag::MakeParam(std::move(wh));
  w_r_ = ag::MakeParam(std::move(wr));
  if (options.agg == AggKind::kAttention) {
    Tensor q(d, 1);
    q.GlorotUniform(rng);
    agg_query_ = ag::MakeParam(std::move(q));
  }
}

Gscm::Assignment Gscm::Assign(const ag::VarPtr& x) const {
  UV_CHECK_EQ(x->cols(), options_.in_dim);
  ag::VarPtr logits = ag::MatMul(x, w_b_);
  Assignment out;
  out.soft = ag::RowSoftmax(logits, options_.temperature);
  out.hard = RowArgmax(logits->value);
  return out;
}

Gscm::Output Gscm::Forward(const ag::VarPtr& x) const {
  Assignment a = Assign(x);
  return Finish(x, std::move(a.soft), std::move(a.hard));
}

Gscm::Output Gscm::ForwardFrozen(const ag::VarPtr& x,
                                 const Tensor& frozen_soft,
                                 const std::vector<int>& frozen_hard) const {
  UV_CHECK_EQ(frozen_soft.rows(), x->rows());
  UV_CHECK_EQ(frozen_soft.cols(), options_.num_clusters);
  return Finish(x, ag::MakeConst(frozen_soft), frozen_hard);
}

Gscm::Output Gscm::Finish(const ag::VarPtr& x, ag::VarPtr assignment,
                          std::vector<int> hard) const {
  Output out;
  out.assignment = std::move(assignment);
  out.hard_assignment = std::move(hard);

  // regions -> clusters through the binarized assignment (eq. 10).
  auto seg_ids =
      std::make_shared<const std::vector<int>>(out.hard_assignment);
  ag::VarPtr h =
      ag::SegmentSumByIds(x, seg_ids, options_.num_clusters);

  // Cluster-graph convolution over the complete learnable graph (eq. 11).
  out.cluster_repr = ag::Relu(ag::MatMul(edge_w_, ag::MatMul(h, w_h_)));

  // clusters -> regions reverse knowledge sharing with soft B (eq. 12).
  ag::VarPtr global =
      ag::Relu(ag::MatMul(out.assignment, ag::MatMul(out.cluster_repr, w_r_)));

  // Combine local and global representations (eq. 13).
  out.region_repr = AggregatePair(options_.agg, x, global, agg_query_);
  return out;
}

std::vector<ag::VarPtr> Gscm::Params() const {
  std::vector<ag::VarPtr> params = {w_b_, edge_w_, w_h_, w_r_};
  if (options_.agg == AggKind::kAttention) params.push_back(agg_query_);
  return params;
}

std::vector<int> ComputeClusterPseudoLabels(
    const std::vector<int>& hard_assignment, const std::vector<int>& labels,
    int num_clusters) {
  UV_CHECK_EQ(hard_assignment.size(), labels.size());
  std::vector<int> pseudo(num_clusters, 0);
  for (size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] == 1) {
      const int k = hard_assignment[i];
      UV_CHECK_GE(k, 0);
      UV_CHECK_LT(k, num_clusters);
      pseudo[k] = 1;
    }
  }
  return pseudo;
}

}  // namespace uv::nn
