#include "core/batch_plan.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "obs/metrics_log.h"
#include "obs/trace.h"
#include "urg/neighbor_sampler.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/timer.h"

namespace uv::core {
namespace {

// Forward inputs over a sampled subgraph: its context and its nodes' rows.
BatchInputs SubgraphInputs(const urg::UrbanRegionGraph& urg,
                           urg::SampledSubgraph sg) {
  const urg::SubgraphFeatures features = urg::GatherSubgraphFeatures(urg, sg);
  BatchInputs inputs;
  inputs.ctx = urg::ContextFromSubgraph(sg);
  inputs.poi = features.poi;
  inputs.image = features.image;
  inputs.nodes = std::move(sg.nodes);
  return inputs;
}

}  // namespace

BatchInputs WholeCityInputs(const urg::UrbanRegionGraph& urg) {
  std::vector<int> all(static_cast<size_t>(urg.num_regions()));
  std::iota(all.begin(), all.end(), 0);
  urg::MinibatchConfig cfg;
  cfg.fanout = 0;
  cfg.hops = 1;  // Every region is a seed: there is no frontier to open.
  return SubgraphInputs(urg,
                        urg::SampleKHop(urg::NeighborView(urg), all, cfg));
}

const std::shared_ptr<const BatchInputs>& BatchPlan::WholeCity(
    const urg::UrbanRegionGraph& urg) {
  if (!whole_city_) {
    whole_city_ = std::make_shared<const BatchInputs>(WholeCityInputs(urg));
  }
  return whole_city_;
}

void BatchPlan::SetTrainSet(std::vector<int> ids, std::vector<int> labels,
                            double pos_weight) {
  UV_CHECK_EQ(ids.size(), labels.size());
  UV_CHECK(!ids.empty());
  train_ids_ = std::move(ids);
  train_labels_ = std::move(labels);
  const Tensor weights = MakeBceWeights(train_labels_, pos_weight);
  pos_w_ = 1.0f;
  for (size_t i = 0; i < train_labels_.size(); ++i) {
    if (train_labels_[i] > 0) {
      pos_w_ = weights.at(static_cast<int>(i), 0);
      break;
    }
  }
  whole_city_train_ = Batch();
  order_epoch_ = -1;
}

int BatchPlan::num_train_batches() const {
  if (whole_city()) return 1;
  const int n = static_cast<int>(train_ids_.size());
  const int bs = std::min(batch_size_, n);
  return (n + bs - 1) / bs;
}

Batch BatchPlan::Sampled(const urg::UrbanRegionGraph& urg,
                         const std::vector<int>& seeds, int fanout,
                         uint64_t sample_seed) const {
  urg::MinibatchConfig cfg;
  cfg.batch_size = static_cast<int>(seeds.size());
  cfg.fanout = fanout;
  cfg.hops = hops_;
  cfg.seed = sample_seed;
  Batch batch;
  batch.inputs = std::make_shared<const BatchInputs>(SubgraphInputs(
      urg, urg::SampleKHop(urg::NeighborView(urg), seeds, cfg)));
  auto rows = std::make_shared<std::vector<int>>(seeds.size());
  std::iota(rows->begin(), rows->end(), 0);
  batch.rows = std::move(rows);
  return batch;
}

const Batch& BatchPlan::TrainBatch(const urg::UrbanRegionGraph& urg,
                                   uint64_t seed, int epoch, int batch) {
  auto weights = [this](const std::vector<int>& labels) {
    Tensor out(static_cast<int>(labels.size()), 1);
    for (size_t i = 0; i < labels.size(); ++i) {
      out.at(static_cast<int>(i), 0) = labels[i] > 0 ? pos_w_ : 1.0f;
    }
    return out;
  };
  if (whole_city()) {
    if (!whole_city_train_.inputs) {
      whole_city_train_.inputs = WholeCity(urg);
      whole_city_train_.rows =
          std::make_shared<const std::vector<int>>(train_ids_);
      whole_city_train_.labels = MakeLabelTensor(train_labels_);
      whole_city_train_.weights = weights(train_labels_);
      whole_city_train_.whole_city = true;
    }
    return whole_city_train_;
  }

  const int n = static_cast<int>(train_ids_.size());
  if (epoch != order_epoch_ || seed != order_seed_) {
    // Reshuffled from the canonical (ascending-id) order so the
    // permutation depends only on (seed, epoch), never on earlier epochs.
    order_.resize(train_ids_.size());
    for (int i = 0; i < n; ++i) order_[i] = {train_ids_[i], train_labels_[i]};
    std::sort(order_.begin(), order_.end());
    Rng rng(urg::MixSeed(seed ^ 0xba7c4u, epoch));
    rng.Shuffle(&order_);
    order_seed_ = seed;
    order_epoch_ = epoch;
  }
  const int bs = std::min(batch_size_, n);
  const int begin = batch * bs;
  const int end = std::min(n, begin + bs);
  std::vector<int> seeds, labels;
  seeds.reserve(end - begin);
  labels.reserve(end - begin);
  for (int i = begin; i < end; ++i) {
    seeds.push_back(order_[i].first);
    labels.push_back(order_[i].second);
  }
  current_ = Sampled(urg, seeds, fanout_, urg::MixSeed(seed, epoch));
  current_.labels = MakeLabelTensor(labels);
  current_.weights = weights(labels);
  return current_;
}

void BatchPlan::ForEachScoreBatch(
    const urg::UrbanRegionGraph& urg, const std::vector<int>& ids,
    const std::function<void(const Batch&, size_t begin)>& fn) {
  ag::NoGradScope no_grad;
  if (whole_city()) {
    Batch batch;
    batch.inputs = WholeCity(urg);
    batch.rows = std::make_shared<const std::vector<int>>(ids);
    batch.whole_city = true;
    fn(batch, 0);
    return;
  }
  constexpr size_t kChunk = 64;  // Bounds the fanout-unlimited closure.
  for (size_t begin = 0; begin < ids.size(); begin += kChunk) {
    const size_t end = std::min(ids.size(), begin + kChunk);
    const std::vector<int> chunk(ids.begin() + begin, ids.begin() + end);
    fn(Sampled(urg, chunk, /*fanout=*/0, /*sample_seed=*/0), begin);
  }
}

std::vector<float> BatchPlan::Score(
    const urg::UrbanRegionGraph& urg, const std::vector<int>& ids,
    const std::function<ag::VarPtr(const Batch&)>& logits) {
  std::vector<float> out(ids.size());
  ForEachScoreBatch(urg, ids, [&](const Batch& batch, size_t begin) {
    const ag::VarPtr z = logits(batch);
    const std::vector<int>& rows = *batch.rows;
    for (size_t i = 0; i < rows.size(); ++i) {
      out[begin + i] = 1.0f / (1.0f + std::exp(-z->value.at(rows[i], 0)));
    }
  });
  return out;
}

Tensor MakeLabelTensor(const std::vector<int>& labels) {
  Tensor out(static_cast<int>(labels.size()), 1);
  for (size_t i = 0; i < labels.size(); ++i) {
    out.at(static_cast<int>(i), 0) = labels[i] > 0 ? 1.0f : 0.0f;
  }
  return out;
}

Tensor MakeBceWeights(const std::vector<int>& labels, double pos_weight) {
  int num_pos = 0;
  for (int l : labels) num_pos += (l > 0);
  const int num_neg = static_cast<int>(labels.size()) - num_pos;
  double w = pos_weight;
  if (w <= 0.0) {
    w = num_pos > 0 ? static_cast<double>(num_neg) /
                          std::max(1, num_pos)
                    : 1.0;
  }
  Tensor out(static_cast<int>(labels.size()), 1);
  for (size_t i = 0; i < labels.size(); ++i) {
    out.at(static_cast<int>(i), 0) =
        labels[i] > 0 ? static_cast<float>(w) : 1.0f;
  }
  return out;
}

double TrainLoopBatched(
    ag::Optimizer* optimizer, int epochs, double lr_decay_per_epoch,
    int num_batches,
    const std::function<ag::VarPtr(int epoch, int batch)>& build_batch_loss,
    std::vector<double>* epoch_seconds, const char* stage) {
  UV_CHECK_GT(num_batches, 0);
  double total = 0.0;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    obs::SpanGuard epoch_span("epoch", obs::SpanLevel::kCoarse, "epoch",
                              epoch);
    WallTimer epoch_timer;
    double loss_sum = 0.0;
    double grad_norm = 0.0;
    for (int batch = 0; batch < num_batches; ++batch) {
      optimizer->ZeroGradients();
      ag::VarPtr loss = build_batch_loss(epoch, batch);
      loss_sum += loss->value.at(0, 0);
      ag::Backward(loss);
      // Grad norm is an extra full pass over every parameter; only pay for
      // it when the metrics log is live (it never feeds back into training).
      if (obs::MetricsLogEnabled()) {
        grad_norm = ag::GlobalGradNorm(optimizer->params());
      }
      optimizer->Step();
    }
    const double lr = optimizer->learning_rate();
    optimizer->DecayLearningRate(lr_decay_per_epoch);
    const double seconds = epoch_timer.Seconds();
    total += seconds;
    if (epoch_seconds != nullptr) epoch_seconds->push_back(seconds);
    obs::MetricsRecord("epoch")
        .Str("stage", stage)
        .Int("epoch", epoch)
        .Int("batches", num_batches)
        .Num("loss", loss_sum / num_batches)
        .Num("grad_norm", grad_norm)
        .Num("lr", lr)
        .Num("seconds", seconds)
        .Emit();
  }
  return epochs > 0 ? total / epochs : 0.0;
}

}  // namespace uv::core
