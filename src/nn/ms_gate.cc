#include "nn/ms_gate.h"

#include "util/check.h"

namespace uv::nn {

MsGate::MsGate(const Options& options, Rng* rng)
    : options_(options),
      pseudo_predictor_(options.cluster_repr_dim, 1, rng) {
  const int filter_size = ag::GatedMlpFilterSize(options.classifier_in,
                                                 options.classifier_hidden);
  Tensor wq(options.num_clusters, options.context_dim);
  wq.GlorotUniform(rng);
  w_q_ = ag::MakeParam(std::move(wq));
  Tensor wf(options.context_dim, filter_size);
  wf.RandomNormal(rng, 0.05f);
  w_f_ = ag::MakeParam(std::move(wf));
  Tensor bf(1, filter_size);
  // sigmoid(3) ~ 0.95: the slave model starts as the near-unmodified master
  // and the gate learns which parameters to damp per region.
  bf.Fill(3.0f);
  b_f_ = ag::MakeParam(std::move(bf));
}

ag::VarPtr MsGate::EstimateInclusion(const ag::VarPtr& cluster_repr) const {
  UV_CHECK_EQ(cluster_repr->cols(), options_.cluster_repr_dim);
  return pseudo_predictor_.Forward(cluster_repr, kern::Activation::kSigmoid);
}

ag::VarPtr MsGate::ContextVector(const ag::VarPtr& assignment,
                                 const ag::VarPtr& inclusion) const {
  UV_CHECK_EQ(assignment->cols(), options_.num_clusters);
  UV_CHECK_EQ(inclusion->rows(), options_.num_clusters);
  UV_CHECK_EQ(inclusion->cols(), 1);
  // B_{i,*} ∘ Ŷ^h followed by W_q and sigma (eq. 19).
  ag::VarPtr weighted =
      ag::MulRowVector(assignment, ag::Transpose(inclusion));
  return ag::Sigmoid(ag::MatMul(weighted, w_q_));
}

ag::VarPtr MsGate::Forward(const ag::VarPtr& region_repr,
                           const ag::VarPtr& assignment,
                           const ag::VarPtr& inclusion, const Mlp& master,
                           const std::vector<int>* rows) const {
  UV_CHECK_EQ(region_repr->cols(), options_.classifier_in);
  ag::VarPtr context = ContextVector(assignment, inclusion);
  // Region-specific parameter filter (eq. 20) and the slave prediction with
  // the gated master parameters (eq. 21-22) in one fused op, which derives
  // the filter a tile of rows at a time instead of storing it.
  return ag::GatedMlp(region_repr, context, w_f_, b_f_, master.layer1().w(),
                      master.layer1().b(), master.layer2().w(),
                      master.layer2().b(), rows);
}

std::vector<ag::VarPtr> MsGate::Params() const {
  std::vector<ag::VarPtr> params = pseudo_predictor_.Params();
  params.push_back(w_q_);
  params.push_back(w_f_);
  params.push_back(b_f_);
  return params;
}

}  // namespace uv::nn
