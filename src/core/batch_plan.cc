#include "core/batch_plan.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "autograd/ops.h"
#include "obs/metrics_log.h"
#include "obs/trace.h"
#include "tensor/kernels/kernel_dispatch.h"
#include "tensor/tensor_ops.h"
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

// The seeds' full in-segments: SampleKHop at fanout 0 over one hop, so
// every source that is not a seed joins after the seeds with a self loop
// only.
urg::SampledSubgraph OneHop(const urg::NeighborView& view,
                            const std::vector<int>& seeds) {
  urg::MinibatchConfig cfg;
  cfg.fanout = 0;
  cfg.hops = 1;
  return urg::SampleKHop(view, seeds, cfg);
}

// Rows `ids` of a constant, as a constant.
ag::VarPtr GatherConst(const ag::VarPtr& x, const std::vector<int>& ids) {
  return ag::MakeConst(GatherRows(x->value, ids));
}

// Writes rows [0, ids.size()) of `part` to rows `ids` of *city.
void ScatterRows(const Tensor& part, const std::vector<int>& ids,
                 Tensor* city) {
  const size_t row_bytes = sizeof(float) * static_cast<size_t>(part.cols());
  for (size_t r = 0; r < ids.size(); ++r) {
    std::memcpy(city->row(ids[r]), part.row(static_cast<int>(r)), row_bytes);
  }
}

}  // namespace

BatchInputs WholeCityInputs(const urg::UrbanRegionGraph& urg) {
  std::vector<int> all(static_cast<size_t>(urg.num_regions()));
  std::iota(all.begin(), all.end(), 0);
  // Every region is a seed: the one hop leaves no halo.
  return SubgraphInputs(urg, OneHop(urg::NeighborView(urg), all));
}

ag::VarPtr LayeredTrunk::Trunk(const BatchInputs& inputs) const {
  obs::SpanGuard span("trunk", obs::SpanLevel::kFine);
  TrunkRows rows = Stem(inputs.poi, inputs.image);
  for (int l = 0; l < num_layers(); ++l) {
    rows = LayerStep(l, rows, inputs.ctx);
  }
  return ag::ConcatCols(rows.poi, rows.image);
}

ag::VarPtr WholeCityTrunk(const LayeredTrunk& model,
                          const urg::UrbanRegionGraph& urg) {
  const urg::ShardedUrg& sharded = *urg.sharded;
  obs::SpanGuard span("city_trunk", obs::SpanLevel::kFine, "shards",
                      static_cast<int64_t>(sharded.shards.size()));
  ag::NoGradScope no_grad;
  const int n = urg.num_regions();
  // Each shard's owned regions, in its local order.
  std::vector<std::vector<int>> owned(sharded.shards.size());
  for (size_t s = 0; s < owned.size(); ++s) {
    const urg::UrgShard& shard = sharded.shards[s];
    owned[s].resize(static_cast<size_t>(shard.num_owned));
    for (int local = 0; local < shard.num_owned; ++local) {
      owned[s][local] = shard.GlobalOf(sharded.grid, local);
    }
  }
  // A lone shard owns every region in id order and has no halo, so its
  // slice's rows are the city's rows as they stand.
  const bool one_slice = owned.size() == 1;

  // The city's rows from step(s), the rows of slice s whose first
  // owned[s].size() rows are the shard's owned regions.
  auto each_slice = [&](const auto& step) -> TrunkRows {
    if (one_slice) return step(0);
    Tensor poi, image;
    for (size_t s = 0; s < owned.size(); ++s) {
      const TrunkRows part = step(s);
      if (s == 0) {
        poi = Tensor::Uninit(n, part.poi->cols());
        image = Tensor::Uninit(n, part.image->cols());
      }
      ScatterRows(part.poi->value, owned[s], &poi);
      ScatterRows(part.image->value, owned[s], &image);
    }
    return TrunkRows{ag::MakeConst(std::move(poi)),
                     ag::MakeConst(std::move(image))};
  };

  TrunkRows rows = each_slice([&](size_t s) {
    Tensor poi, image;
    urg.GatherPoiRows(owned[s], &poi);
    urg.GatherImageRows(owned[s], &image);
    return model.Stem(ag::MakeConst(std::move(poi)),
                      ag::MakeConst(std::move(image)));
  });
  const urg::NeighborView view(urg);
  for (int l = 0; l < model.num_layers(); ++l) {
    const TrunkRows in = std::move(rows);
    rows = each_slice([&](size_t s) {
      const urg::SampledSubgraph sg = OneHop(view, owned[s]);
      const TrunkRows local =
          one_slice ? in
                    : TrunkRows{GatherConst(in.poi, sg.nodes),
                                GatherConst(in.image, sg.nodes)};
      return model.LayerStep(l, local, urg::ContextFromSubgraph(sg));
    });
  }
  return ag::ConcatCols(rows.poi, rows.image);
}

std::vector<float> SigmoidRows(const Tensor& logits,
                               const std::vector<int>& ids) {
  std::vector<float> out(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    out[i] = kern::PlainSigmoid(logits.at(ids[i], 0));
  }
  return out;
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
                         const std::vector<int>& seeds,
                         uint64_t sample_seed) const {
  urg::MinibatchConfig cfg;
  cfg.batch_size = static_cast<int>(seeds.size());
  cfg.fanout = fanout_;
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
  current_ = Sampled(urg, seeds, urg::MixSeed(seed, epoch));
  current_.labels = MakeLabelTensor(labels);
  current_.weights = weights(labels);
  return current_;
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
