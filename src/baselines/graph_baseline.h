#ifndef UV_BASELINES_GRAPH_BASELINE_H_
#define UV_BASELINES_GRAPH_BASELINE_H_

#include <memory>

#include "baselines/common.h"
#include "core/batch_plan.h"
#include "infer/engine.h"
#include "nn/gat.h"
#include "nn/gcn.h"
#include "nn/linear.h"

namespace uv::baselines {

// The GCN and GAT baselines (paper Appendix I-A): image features linearly
// reduced, one 2-layer graph network per modality on the URG, linear
// multi-modal fusion, logistic head. `Layer` is nn::GcnLayer (GCN) or a
// two-head nn::GatLayer (GAT: attention-based aggregation). Trains and
// scores through a core::BatchPlan: the whole city as one batch by
// default, neighborhood-sampled minibatches when
// TrainOptions::batch_size > 0.
template <typename Layer>
class GraphBaseline : public eval::Detector {
 public:
  explicit GraphBaseline(const TrainOptions& options) : options_(options) {}

  std::string name() const override;

  void Train(const urg::UrbanRegionGraph& urg,
             const std::vector<int>& train_ids,
             const std::vector<int>& train_labels) override;
  std::vector<float> Score(const urg::UrbanRegionGraph& urg,
                           const std::vector<int>& eval_ids) override;
  int64_t NumParameters() const override;
  double TrainSecondsPerEpoch() const override { return epoch_seconds_; }
  std::vector<double> EpochSecondsHistory() const override {
    return epoch_history_;
  }
  double LastInferenceSeconds() const override { return inference_seconds_; }

  // Grad-free inference engine over this trained model (full-graph
  // semantics): runs Trunk once over the whole city under an
  // ag::NoGradScope, then serves the dense fuse+head tail per request,
  // bit-identical to full-graph Score.
  std::unique_ptr<infer::Engine> MakeEngine(
      const urg::UrbanRegionGraph& urg) const;

 private:
  static const char* Name();
  static std::unique_ptr<Layer> MakeLayer(int in_dim, int out_dim, Rng* rng);

  // The two per-modality graph stacks, concatenated: the fuse layer's
  // input.
  ag::VarPtr Trunk(const core::BatchInputs& inputs) const;
  ag::VarPtr Forward(const core::BatchInputs& inputs) const;
  std::vector<ag::VarPtr> Params() const;

  TrainOptions options_;
  std::unique_ptr<core::BatchPlan> plan_;
  std::unique_ptr<nn::Linear> img_reduce_;
  std::unique_ptr<Layer> poi_g1_, poi_g2_, img_g1_, img_g2_;
  std::unique_ptr<nn::Linear> fuse_;
  std::unique_ptr<nn::Linear> head_;
  double epoch_seconds_ = 0.0;
  std::vector<double> epoch_history_;
  double inference_seconds_ = 0.0;
};

template <>
const char* GraphBaseline<nn::GcnLayer>::Name();
template <>
const char* GraphBaseline<nn::GatLayer>::Name();
template <>
std::unique_ptr<nn::GcnLayer> GraphBaseline<nn::GcnLayer>::MakeLayer(
    int in_dim, int out_dim, Rng* rng);
template <>
std::unique_ptr<nn::GatLayer> GraphBaseline<nn::GatLayer>::MakeLayer(
    int in_dim, int out_dim, Rng* rng);

using GcnBaseline = GraphBaseline<nn::GcnLayer>;
using GatBaseline = GraphBaseline<nn::GatLayer>;
extern template class GraphBaseline<nn::GcnLayer>;
extern template class GraphBaseline<nn::GatLayer>;

}  // namespace uv::baselines

#endif  // UV_BASELINES_GRAPH_BASELINE_H_
