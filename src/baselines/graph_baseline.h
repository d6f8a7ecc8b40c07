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
// two-head nn::GatLayer (GAT: attention-based aggregation). Trains through
// a core::BatchPlan: the whole city as one batch by default,
// neighborhood-sampled minibatches when TrainOptions::batch_size > 0.
// Scores, under either plan, take the trunk from the whole-city pass
// (core::WholeCityTrunk).
template <typename Layer>
class GraphBaseline : public eval::Detector, private core::LayeredTrunk {
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

  // Grad-free inference engine over this trained model: takes the trunk
  // from the whole-city pass, then serves the dense fuse+head tail per
  // request, bit-identical to Score.
  std::unique_ptr<infer::Engine> MakeEngine(
      const urg::UrbanRegionGraph& urg) const;

 private:
  static const char* Name();
  static std::unique_ptr<Layer> MakeLayer(int in_dim, int out_dim, Rng* rng);

  // The trunk (core::LayeredTrunk): the image reduction as the stem, then
  // one layer of each per-modality graph stack per step. Trunk(inputs)
  // concatenates the two stacks: the fuse layer's input.
  core::TrunkRows Stem(const ag::VarPtr& poi,
                       const ag::VarPtr& image) const override;
  int num_layers() const override { return 2; }
  core::TrunkRows LayerStep(int layer, const core::TrunkRows& in,
                            const nn::GraphContext& ctx) const override;
  // Fuse layer and logistic head over trunk rows: logits (rows x 1).
  ag::VarPtr Head(const ag::VarPtr& trunk) const;
  std::vector<ag::VarPtr> Params() const;

  TrainOptions options_;
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
