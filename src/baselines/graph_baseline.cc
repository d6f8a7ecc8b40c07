#include "baselines/graph_baseline.h"

#include "autograd/ops.h"
#include "util/check.h"
#include "util/timer.h"

namespace uv::baselines {

namespace {
constexpr int kHidden = 64;
constexpr int kImageReduce = 128;
constexpr int kGatHeads = 2;
}  // namespace

template <>
const char* GraphBaseline<nn::GcnLayer>::Name() {
  return "GCN";
}

template <>
const char* GraphBaseline<nn::GatLayer>::Name() {
  return "GAT";
}

template <>
std::unique_ptr<nn::GcnLayer> GraphBaseline<nn::GcnLayer>::MakeLayer(
    int in_dim, int out_dim, Rng* rng) {
  return std::make_unique<nn::GcnLayer>(in_dim, out_dim, rng);
}

template <>
std::unique_ptr<nn::GatLayer> GraphBaseline<nn::GatLayer>::MakeLayer(
    int in_dim, int out_dim, Rng* rng) {
  return std::make_unique<nn::GatLayer>(in_dim, out_dim, kGatHeads, rng);
}

template <typename Layer>
std::string GraphBaseline<Layer>::name() const {
  return Name();
}

template <typename Layer>
core::TrunkRows GraphBaseline<Layer>::Stem(const ag::VarPtr& poi,
                                           const ag::VarPtr& image) const {
  return {poi, img_reduce_->Forward(image, kern::Activation::kRelu)};
}

template <typename Layer>
core::TrunkRows GraphBaseline<Layer>::LayerStep(
    int layer, const core::TrunkRows& in, const nn::GraphContext& ctx) const {
  const Layer& poi = layer == 0 ? *poi_g1_ : *poi_g2_;
  const Layer& img = layer == 0 ? *img_g1_ : *img_g2_;
  return {ag::Relu(poi.Forward(in.poi, ctx)),
          ag::Relu(img.Forward(in.image, ctx))};
}

template <typename Layer>
ag::VarPtr GraphBaseline<Layer>::Head(const ag::VarPtr& trunk) const {
  return head_->Forward(fuse_->Forward(trunk, kern::Activation::kRelu));
}

template <typename Layer>
std::vector<ag::VarPtr> GraphBaseline<Layer>::Params() const {
  std::vector<ag::VarPtr> params;
  auto add = [&params](std::vector<ag::VarPtr> p) {
    params.insert(params.end(), p.begin(), p.end());
  };
  add(img_reduce_->Params());
  add(poi_g1_->Params());
  add(poi_g2_->Params());
  add(img_g1_->Params());
  add(img_g2_->Params());
  add(fuse_->Params());
  add(head_->Params());
  return params;
}

template <typename Layer>
void GraphBaseline<Layer>::Train(const urg::UrbanRegionGraph& urg,
                                 const std::vector<int>& train_ids,
                                 const std::vector<int>& train_labels) {
  // Construction order fixes the RNG draws, and with them every output.
  Rng rng(options_.seed);
  img_reduce_ = std::make_unique<nn::Linear>(urg.ImageDim(), kImageReduce,
                                             &rng);
  poi_g1_ = MakeLayer(urg.PoiDim(), kHidden, &rng);
  poi_g2_ = MakeLayer(kHidden, kHidden, &rng);
  img_g1_ = MakeLayer(kImageReduce, kHidden, &rng);
  img_g2_ = MakeLayer(kHidden, kHidden, &rng);
  fuse_ = std::make_unique<nn::Linear>(2 * kHidden, kHidden, &rng);
  head_ = std::make_unique<nn::Linear>(kHidden, 1, &rng);

  ag::AdamOptimizer::Options aopt;
  aopt.learning_rate = options_.learning_rate;
  aopt.clip_norm = options_.clip_norm;
  ag::AdamOptimizer opt(Params(), aopt);

  core::BatchPlan plan(options_.batch_size, options_.fanout,
                       num_layers());
  plan.SetTrainSet(train_ids, train_labels, options_.pos_weight);
  epoch_seconds_ = core::TrainLoopBatched(
      &opt, options_.epochs, options_.lr_decay_per_epoch,
      plan.num_train_batches(),
      [&](int epoch, int b) {
        const core::Batch& batch =
            plan.TrainBatch(urg, options_.seed, epoch, b);
        return ag::BceWithLogits(
            ag::GatherRows(Head(Trunk(*batch.inputs)), batch.rows),
            batch.labels, &batch.weights);
      },
      &epoch_history_, Name());
}

template <typename Layer>
std::vector<float> GraphBaseline<Layer>::Score(
    const urg::UrbanRegionGraph& urg, const std::vector<int>& eval_ids) {
  WallTimer timer;
  ag::NoGradScope no_grad;
  std::vector<float> out = core::SigmoidRows(
      Head(core::WholeCityTrunk(*this, urg))->value, eval_ids);
  inference_seconds_ = timer.Seconds();
  return out;
}

template <typename Layer>
int64_t GraphBaseline<Layer>::NumParameters() const {
  return img_reduce_ ? CountParams(Params()) : 0;
}

template <typename Layer>
std::unique_ptr<infer::Engine> GraphBaseline<Layer>::MakeEngine(
    const urg::UrbanRegionGraph& urg) const {
  UV_CHECK(img_reduce_ != nullptr);  // Train first.
  return infer::MakeDenseTailEngine(
      std::move(core::WholeCityTrunk(*this, urg)->value), fuse_->w()->value,
      fuse_->b()->value, head_->w()->value, head_->b()->value);
}

template class GraphBaseline<nn::GcnLayer>;
template class GraphBaseline<nn::GatLayer>;

}  // namespace uv::baselines
