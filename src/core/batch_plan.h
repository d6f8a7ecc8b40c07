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

// One batch of a BatchPlan: forward inputs plus the rows of the forward
// output the batch is about — the loss rows of a training batch (with
// their labels and BCE weights), or the rows of the requested ids of a
// scoring batch.
struct Batch {
  std::shared_ptr<const BatchInputs> inputs;
  std::shared_ptr<const std::vector<int>> rows;
  Tensor labels;   // (rows x 1), training batches only.
  Tensor weights;  // (rows x 1), training batches only.
  bool whole_city = false;
};

// The one execution path of every graph model: full-graph training and
// scoring are the whole-city batch of the minibatch loop.
//
// batch_size <= 0 plans the whole city as a single batch, built once by
// WholeCityInputs and kept for training, scoring and the quality baseline.
// Training uses it with the train ids (in the caller's order) as loss
// rows; scoring reads the requested ids' rows from it.
//
// batch_size > 0 plans sampled batches: each epoch reshuffles the train
// set from ascending-id order with Rng(MixSeed(seed ^ 0xba7c4, epoch)),
// cuts it into batches of batch_size seeds, and samples each batch's k-hop
// subgraph with `fanout` in-neighbors per node under MixSeed(seed, epoch);
// the seed rows are the loss rows. Scoring cuts the ids into chunks of 64
// seeds sampled at fanout 0: every in-neighbor is kept, so each seed's
// message-passing output equals the whole-city one bit for bit.
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

  // Exact scoring: calls fn(batch, begin) with batches whose rows are
  // ids[begin, begin + batch.rows->size()), in order, under an
  // ag::NoGradScope: scoring never runs Backward, so the forwards fn
  // builds keep no graph.
  void ForEachScoreBatch(
      const urg::UrbanRegionGraph& urg, const std::vector<int>& ids,
      const std::function<void(const Batch&, size_t begin)>& fn);

  // Sigmoid probabilities of `ids`, in order, given each scoring batch's
  // (nodes x 1) logit column.
  std::vector<float> Score(
      const urg::UrbanRegionGraph& urg, const std::vector<int>& ids,
      const std::function<ag::VarPtr(const Batch&)>& logits);

 private:
  // A sampled batch around `seeds` (local rows [0, seeds) are its rows).
  Batch Sampled(const urg::UrbanRegionGraph& urg,
                const std::vector<int>& seeds, int fanout,
                uint64_t sample_seed) const;

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
// shard count. BatchPlan::WholeCity keeps one; the whole-city passes that
// run without a plan (the inference engines, MMRE, ImGAGN) build their own.
BatchInputs WholeCityInputs(const urg::UrbanRegionGraph& urg);

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
