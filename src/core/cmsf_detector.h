#ifndef UV_CORE_CMSF_DETECTOR_H_
#define UV_CORE_CMSF_DETECTOR_H_

#include <memory>
#include <string>

#include "core/batch_plan.h"
#include "core/cmsf_model.h"
#include "eval/detector.h"
#include "io/checkpoint.h"
#include "util/status.h"

namespace uv::core {

// eval::Detector adapter for CMSF and its Fig. 5(a) ablation variants.
// Constructed per fold; Train runs both stages (Algorithms 1 and 2)
// through one BatchPlan: the whole city as one batch when
// CmsfConfig::batch_size <= 0, neighborhood-sampled minibatches otherwise.
// Score and the quality baseline take the trunk from the whole-city pass
// (WholeCityTrunk) under either plan, so they equal the engine's scores.
class CmsfDetector : public eval::Detector {
 public:
  CmsfDetector(const CmsfConfig& config, std::string name = "CMSF")
      : config_(config), name_(std::move(name)) {}

  std::string name() const override { return name_; }

  void Train(const urg::UrbanRegionGraph& urg,
             const std::vector<int>& train_ids,
             const std::vector<int>& train_labels) override;

  std::vector<float> Score(const urg::UrbanRegionGraph& urg,
                           const std::vector<int>& eval_ids) override;

  int64_t NumParameters() const override;
  double TrainSecondsPerEpoch() const override { return train_epoch_seconds_; }
  double LastInferenceSeconds() const override { return inference_seconds_; }
  std::vector<double> EpochSecondsHistory() const override {
    return epoch_seconds_;
  }
  // The freeze sweep plus every slave epoch.
  double OtherTrainSeconds() const override { return other_train_seconds_; }

  const CmsfModel* model() const { return model_.get(); }
  const CmsfModel::FrozenAssignment& frozen() const { return frozen_; }

  // Persists the trained model as a v2 UVCK checkpoint: all parameters
  // plus the frozen stage-one assignment, the serialized config, a
  // fingerprint of the URG the model was trained on, and the training-time
  // quality baseline (built on first save from the whole-city pass — the
  // same representation serving engines observe — and cached thereafter,
  // so save -> load -> save stays byte-identical).
  Status SaveModel(const urg::UrbanRegionGraph& urg, const std::string& path);
  // Restores a saved checkpoint: validates version / model name / URG
  // fingerprint, adopts the checkpoint's config and quality baseline, and
  // rebuilds the model. A frozen assignment whose shapes or values differ
  // from what SaveModel writes for that config is InvalidArgument.
  Status LoadModel(const urg::UrbanRegionGraph& urg, const std::string& path);

  // The training-time baseline for drift monitors. Built lazily by
  // SaveModel (or explicitly here); empty() until the detector has been
  // trained or loaded from a v2 checkpoint.
  const obs::QualityBaseline& baseline(const urg::UrbanRegionGraph& urg) {
    EnsureBaseline(urg);
    return baseline_;
  }

 private:
  void EnsureBaseline(const urg::UrbanRegionGraph& urg);

  CmsfConfig config_;
  std::string name_;
  std::unique_ptr<CmsfModel> model_;
  std::unique_ptr<BatchPlan> plan_;
  // Training leaves it empty for gate-less variants, which never read it.
  CmsfModel::FrozenAssignment frozen_;
  io::UrgFingerprint fingerprint_;
  obs::QualityBaseline baseline_;
  double train_epoch_seconds_ = 0.0;
  double inference_seconds_ = 0.0;
  // Master-stage epochs only, matching train_epoch_seconds_ (Table III
  // quotes the master stage as the training time).
  std::vector<double> epoch_seconds_;
  double other_train_seconds_ = 0.0;
};

}  // namespace uv::core

#endif  // UV_CORE_CMSF_DETECTOR_H_
