#ifndef UV_CORE_BATCH_PLAN_H_
#define UV_CORE_BATCH_PLAN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "autograd/optimizer.h"
#include "autograd/variable.h"
#include "nn/graph_context.h"
#include "tensor/tensor.h"
#include "urg/urban_region_graph.h"

namespace uv::core {

// The inputs of one graph forward pass: a k-hop subgraph of the URG — the
// whole city when every region is a seed — with its edge structure and its
// two feature modalities as constants. Row i describes region nodes[i].
struct BatchInputs {
  std::vector<int> nodes;
  nn::GraphContext ctx;
  ag::VarPtr poi;    // (nodes x d_poi) constant.
  ag::VarPtr image;  // (nodes x d_img) constant.
};

// One training batch of a BatchPlan: forward inputs plus the loss rows of
// the forward output, with their labels and BCE weights.
struct Batch {
  std::shared_ptr<const BatchInputs> inputs;
  std::shared_ptr<const std::vector<int>> rows;
  Tensor labels;   // (rows x 1).
  Tensor weights;  // (rows x 1).
  bool whole_city = false;
};

// The one training path of every graph model: full-graph training is the
// whole-city batch of the minibatch loop. Exact passes over the whole city
// (the freeze sweep, scoring, engine builds) do not go through a plan:
// they run WholeCityTrunk below.
//
// batch_size <= 0 plans the whole city as a single batch, built once by
// WholeCityInputs and kept across epochs and stages, with the train ids
// (in the caller's order) as loss rows.
//
// batch_size > 0 plans sampled batches: each epoch reshuffles the train
// set from ascending-id order with Rng(MixSeed(seed ^ 0xba7c4, epoch)),
// cuts it into batches of batch_size seeds, and samples each batch's k-hop
// subgraph with `fanout` in-neighbors per node under MixSeed(seed, epoch);
// the seed rows are the loss rows.
//
// Methods take the URG explicitly; it must be the graph the plan's train
// set indexes. Only the whole-city inputs outlive a call.
class BatchPlan {
 public:
  BatchPlan(int batch_size, int fanout, int hops)
      : batch_size_(batch_size), fanout_(fanout), hops_(hops) {}

  bool whole_city() const { return batch_size_ <= 0; }

  // The whole-city inputs, built from `urg` on first use and kept.
  const std::shared_ptr<const BatchInputs>& WholeCity(
      const urg::UrbanRegionGraph& urg);

  // Sets the training set. The positive-class BCE weight is resolved once
  // over the FULL set (per-batch balancing would make the loss depend on
  // batch composition).
  void SetTrainSet(std::vector<int> ids, std::vector<int> labels,
                   double pos_weight);
  const std::vector<int>& train_ids() const { return train_ids_; }
  const std::vector<int>& train_labels() const { return train_labels_; }
  int num_train_batches() const;

  // Training batch `batch` of `epoch` for a stage whose streams derive from
  // `seed`. Valid until the next call. The whole-city training batch is
  // built once, so its loss-row vector keeps one identity across epochs
  // and stages (the GatherRows inverse-index memo keys on it).
  const Batch& TrainBatch(const urg::UrbanRegionGraph& urg, uint64_t seed,
                          int epoch, int batch);

 private:
  // A sampled batch around `seeds` (local rows [0, seeds) are its rows).
  Batch Sampled(const urg::UrbanRegionGraph& urg,
                const std::vector<int>& seeds, uint64_t sample_seed) const;

  int batch_size_;
  int fanout_;
  int hops_;
  std::shared_ptr<const BatchInputs> whole_city_;

  std::vector<int> train_ids_;
  std::vector<int> train_labels_;
  float pos_w_ = 1.0f;
  Batch whole_city_train_;
  // The current epoch's shuffled (id, label) order, for (order_seed_,
  // order_epoch_).
  std::vector<std::pair<int, int>> order_;
  uint64_t order_seed_ = 0;
  int order_epoch_ = -1;
  Batch current_;
};

// The whole city as forward inputs: SampleKHop over every region in id
// order at fanout 0 — every in-segment kept, so the context is the URG's
// adjacency with its GCN norms — plus every region's feature rows, on any
// shard count. BatchPlan::WholeCity keeps one for whole-city training;
// MMRE and ImGAGN build their own.
BatchInputs WholeCityInputs(const urg::UrbanRegionGraph& urg);

// A trunk's rows between two of its layers: one POI-stream and one
// image-stream matrix with a row per region.
struct TrunkRows {
  ag::VarPtr poi;
  ag::VarPtr image;
};

// A graph model's representation trunk as a row-wise stem plus graph
// layers. The trunk is ConcatCols(poi, image) after the last layer. Stem
// row r depends only on region r's feature rows, and row r of LayerStep's
// output only on the input rows of r's in-segment in `ctx`. Training
// (Trunk) and the whole-city pass (WholeCityTrunk) run the same calls.
class LayeredTrunk {
 public:
  // Row-wise over feature rows: POI (rows x d_poi), image (rows x d_img).
  virtual TrunkRows Stem(const ag::VarPtr& poi,
                         const ag::VarPtr& image) const = 0;
  virtual int num_layers() const = 0;
  // Graph layer `layer` (0-based) over ctx's nodes.
  virtual TrunkRows LayerStep(int layer, const TrunkRows& in,
                              const nn::GraphContext& ctx) const = 0;

  // The trunk over one batch's (sub)graph: Stem, then every LayerStep.
  ag::VarPtr Trunk(const BatchInputs& inputs) const;

 protected:
  ~LayeredTrunk() = default;  // Models are never deleted through it.
};

// The exact whole-city trunk of `model` as a constant (N x width, row i =
// region i), computed grad-free layer by layer over the URG's shards
// (GraphSAGE's layer-wise full-neighbourhood inference). The stem runs
// over each shard's owned regions, so each region's features are gathered
// (and each lazy tile rendered and encoded) once. Each graph layer then
// runs, shard by shard, on the owned regions' 1-hop fanout-0 SampleKHop
// subgraph, with rows gathered from the previous layer's N-row matrices,
// and keeps the owned rows. Cost O(L * E); peak memory is one shard's
// subgraph plus two layers' N-row matrices, so the shard count sets the
// slice size. Every row equals the whole-city batch's Trunk row bit for
// bit, on any shard count. The one-shard URG is one slice with no halo:
// no row is gathered or scattered.
ag::VarPtr WholeCityTrunk(const LayeredTrunk& model,
                          const urg::UrbanRegionGraph& urg);

// Sigmoid probabilities (kern::PlainSigmoid) of the given rows of a logit
// column (N x 1).
std::vector<float> SigmoidRows(const Tensor& logits,
                               const std::vector<int>& ids);

// Per-sample BCE weights implementing pos_weight: positives weigh
// pos_weight, or num_neg/num_pos when pos_weight <= 0 (shared by every
// detector so class balancing is uniform across methods).
Tensor MakeBceWeights(const std::vector<int>& labels, double pos_weight);
// Labels as an (n x 1) float tensor.
Tensor MakeLabelTensor(const std::vector<int>& labels);

// The epoch loop every detector trains through: each epoch runs
// `num_batches` optimizer steps (zero grads -> build_batch_loss(epoch,
// batch) -> backward -> step) and decays the learning rate once. Returns
// mean wall-clock seconds per epoch; when epoch_seconds is non-null the
// per-epoch wall times are appended to it. Each epoch is traced as an
// "epoch" span and — when a UV_METRICS log is live — emitted as a JSONL
// record tagged with `stage` carrying the batch count and mean batch loss.
double TrainLoopBatched(
    ag::Optimizer* optimizer, int epochs, double lr_decay_per_epoch,
    int num_batches,
    const std::function<ag::VarPtr(int epoch, int batch)>& build_batch_loss,
    std::vector<double>* epoch_seconds = nullptr, const char* stage = "train");

}  // namespace uv::core

#endif  // UV_CORE_BATCH_PLAN_H_
