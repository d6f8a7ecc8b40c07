#include "core/cmsf_detector.h"

#include <cmath>
#include <numeric>
#include <string>

#include "core/config_codec.h"
#include "io/checkpoint.h"
#include "obs/quality.h"
#include "util/timer.h"

namespace uv::core {
namespace {

// A checkpoint's frozen stage-one assignment must have the shapes
// SaveModel writes for its config, because scoring indexes and gates with
// it: with the gate, soft B is N x K and finite, the hard ids are 1 x N
// cluster ids in [0, K) and the pseudo labels are 1 x K values in {0, 1};
// without the gate, the state is empty.
Status ValidateFrozen(const Tensor& soft, const Tensor& hard,
                      const Tensor& pseudo, bool gated, int n, int k) {
  if (!gated) {
    if (soft.rows() != 0 || soft.cols() != 0 || hard.rows() != 1 ||
        hard.cols() != 0 || pseudo.rows() != 1 || pseudo.cols() != 0) {
      return Status::InvalidArgument(
          "checkpoint without the gate carries a frozen assignment");
    }
    return Status::Ok();
  }
  if (soft.rows() != n || soft.cols() != k || soft.HasNonFinite()) {
    return Status::InvalidArgument(
        "frozen soft assignment is " + soft.ShapeString() +
        " or non-finite; expected finite " + std::to_string(n) + " x " +
        std::to_string(k));
  }
  if (hard.rows() != 1 || hard.cols() != n) {
    return Status::InvalidArgument("frozen hard assignment is " +
                                   hard.ShapeString() + "; expected 1 x " +
                                   std::to_string(n));
  }
  for (int64_t i = 0; i < hard.size(); ++i) {
    const float id = hard[i];
    // NaN fails both comparisons.
    if (!(id >= 0.0f && id < static_cast<float>(k)) || id != std::floor(id)) {
      return Status::InvalidArgument(
          "frozen hard assignment of region " + std::to_string(i) +
          " is not a cluster id in [0, " + std::to_string(k) + ")");
    }
  }
  if (pseudo.rows() != 1 || pseudo.cols() != k) {
    return Status::InvalidArgument("frozen pseudo labels are " +
                                   pseudo.ShapeString() + "; expected 1 x " +
                                   std::to_string(k));
  }
  for (int64_t c = 0; c < pseudo.size(); ++c) {
    if (pseudo[c] != 0.0f && pseudo[c] != 1.0f) {
      return Status::InvalidArgument("frozen pseudo label of cluster " +
                                     std::to_string(c) + " is not 0 or 1");
    }
  }
  return Status::Ok();
}

}  // namespace

void CmsfDetector::Train(const urg::UrbanRegionGraph& urg,
                         const std::vector<int>& train_ids,
                         const std::vector<int>& train_labels) {
  Rng rng(config_.seed);
  fingerprint_ = io::UrgFingerprint::FromUrg(urg);
  // A new training run invalidates any cached quality baseline; the plan
  // keeps the train set so the baseline's calibration bins can pair
  // training scores with ground truth at save time.
  baseline_ = obs::QualityBaseline();
  model_ = std::make_unique<CmsfModel>(config_, urg.PoiDim(), urg.ImageDim(),
                                       &rng);
  plan_ = std::make_unique<BatchPlan>(config_.batch_size, config_.fanout,
                                      config_.maga_layers);
  plan_->SetTrainSet(train_ids, train_labels, config_.pos_weight);
  MasterTrainResult master = TrainMaster(model_.get(), urg, plan_.get());
  frozen_ = std::move(master.frozen);
  // Table III reports the master stage as the training time: it dominates,
  // and the slave stage "only needs very few iterations" (paper VI-G).
  train_epoch_seconds_ = master.seconds_per_epoch;
  epoch_seconds_ = std::move(master.epoch_seconds);
  const SlaveTrainResult slave =
      TrainSlave(model_.get(), urg, plan_.get(), frozen_);
  other_train_seconds_ =
      master.freeze_seconds + std::accumulate(slave.epoch_seconds.begin(),
                                              slave.epoch_seconds.end(), 0.0);
}

std::vector<float> CmsfDetector::Score(const urg::UrbanRegionGraph& urg,
                                       const std::vector<int>& eval_ids) {
  WallTimer timer;
  const CmsfModel::FrozenAssignment* frozen =
      config_.use_hierarchy ? &frozen_ : nullptr;
  std::vector<float> scores = PredictCmsf(*model_, urg, frozen, eval_ids);
  inference_seconds_ = timer.Seconds();
  return scores;
}

void CmsfDetector::EnsureBaseline(const urg::UrbanRegionGraph& urg) {
  if (!baseline_.empty() || !model_) return;
  // The baseline observes exactly what serving engines observe: the
  // whole-city trunk (engine workspaces gather rows of this matrix) and the
  // whole-city predicted scores, which are bit-identical to the engine's by
  // the inference-engine contract. Both come from the one whole-city pass,
  // however training happened to be batched.
  const ag::VarPtr trunk = WholeCityTrunk(*model_, urg);
  const CmsfModel::FrozenAssignment* frozen =
      config_.use_hierarchy ? &frozen_ : nullptr;
  std::vector<int> all_ids(static_cast<size_t>(urg.num_regions()));
  std::iota(all_ids.begin(), all_ids.end(), 0);
  const std::vector<float> scores =
      PredictCmsf(*model_, trunk, frozen, all_ids);
  // Empty after LoadModel: the training ids and labels belong to whatever
  // run produced the checkpoint.
  const std::vector<int>& train_ids = plan_->train_ids();
  std::vector<float> labeled_scores(train_ids.size());
  for (size_t i = 0; i < train_ids.size(); ++i) {
    labeled_scores[i] = scores[static_cast<size_t>(train_ids[i])];
  }
  baseline_ = obs::BuildQualityBaseline(
      trunk->value.data(), trunk->rows(), trunk->cols(), scores.data(),
      static_cast<int64_t>(scores.size()), labeled_scores.data(),
      plan_->train_labels().data(), static_cast<int64_t>(train_ids.size()));
}

Status CmsfDetector::SaveModel(const urg::UrbanRegionGraph& urg,
                               const std::string& path) {
  if (!model_) return Status::FailedPrecondition("detector is not trained");
  EnsureBaseline(urg);
  io::Checkpoint ck;
  ck.model_name = name_;
  ck.config = EncodeCmsfConfig(config_);
  ck.fingerprint = fingerprint_;
  ck.baseline = baseline_;
  for (const auto& p : model_->AllParams()) ck.tensors.push_back(p->value);
  // Frozen stage-one assignment rides along as three extra tensors.
  ck.tensors.push_back(frozen_.soft);
  Tensor hard(1, static_cast<int>(frozen_.hard.size()));
  for (size_t i = 0; i < frozen_.hard.size(); ++i) {
    hard.at(0, static_cast<int>(i)) = static_cast<float>(frozen_.hard[i]);
  }
  ck.tensors.push_back(std::move(hard));
  Tensor pseudo(1, static_cast<int>(frozen_.pseudo_labels.size()));
  for (size_t i = 0; i < frozen_.pseudo_labels.size(); ++i) {
    pseudo.at(0, static_cast<int>(i)) =
        static_cast<float>(frozen_.pseudo_labels[i]);
  }
  ck.tensors.push_back(std::move(pseudo));
  return io::SaveCheckpoint(path, ck);
}

Status CmsfDetector::LoadModel(const urg::UrbanRegionGraph& urg,
                               const std::string& path) {
  auto loaded = io::LoadCheckpoint(path);
  if (!loaded.ok()) return loaded.status();
  io::Checkpoint& ck = loaded.value();
  const io::UrgFingerprint fingerprint = io::UrgFingerprint::FromUrg(urg);
  Status valid = io::ValidateCheckpoint(ck, name_, fingerprint);
  if (!valid.ok()) return valid;
  auto config = DecodeCmsfConfig(ck.config);
  if (!config.ok()) return config.status();
  config_ = config.value();
  fingerprint_ = fingerprint;
  std::vector<Tensor>& tensors = ck.tensors;

  Rng rng(config_.seed);
  model_ = std::make_unique<CmsfModel>(config_, urg.PoiDim(), urg.ImageDim(),
                                       &rng);
  plan_ = std::make_unique<BatchPlan>(config_.batch_size, config_.fanout,
                                      config_.maga_layers);
  auto params = model_->AllParams();
  if (tensors.size() != params.size() + 3) {
    return Status::InvalidArgument("checkpoint layout mismatch");
  }
  const Tensor& hard = tensors[params.size() + 1];
  const Tensor& pseudo = tensors[params.size() + 2];
  Status frozen_valid = ValidateFrozen(
      tensors[params.size()], hard, pseudo,
      config_.use_hierarchy && config_.use_gate, urg.num_regions(),
      config_.num_clusters);
  if (!frozen_valid.ok()) return frozen_valid;
  for (size_t i = 0; i < params.size(); ++i) {
    if (!tensors[i].SameShape(params[i]->value)) {
      return Status::InvalidArgument("parameter shape mismatch");
    }
    params[i]->value = std::move(tensors[i]);
  }
  frozen_.soft = std::move(tensors[params.size()]);
  frozen_.hard.resize(hard.cols());
  for (int i = 0; i < hard.cols(); ++i) {
    frozen_.hard[i] = static_cast<int>(hard.at(0, i));
  }
  frozen_.pseudo_labels.resize(pseudo.cols());
  for (int i = 0; i < pseudo.cols(); ++i) {
    frozen_.pseudo_labels[i] = static_cast<int>(pseudo.at(0, i));
  }
  // Adopt the checkpoint's baseline verbatim (never recompute: the counts
  // must stay byte-identical across save -> load -> save).
  baseline_ = std::move(ck.baseline);
  return Status::Ok();
}

int64_t CmsfDetector::NumParameters() const {
  if (!model_) return 0;
  int64_t total = 0;
  for (const auto& p : model_->AllParams()) total += p->value.size();
  return total;
}

}  // namespace uv::core
