#ifndef UV_BASELINES_MMRE_BASELINE_H_
#define UV_BASELINES_MMRE_BASELINE_H_

#include <memory>

#include "baselines/common.h"
#include "core/batch_plan.h"
#include "nn/gcn.h"
#include "nn/linear.h"

namespace uv::baselines {

// MMRE baseline (paper Appendix I-A): multi-modal region embedding learned
// unsupervised with (1) a denoising autoencoder over image features
// (120-84-64 encoder, symmetric decoder), (2) a 2-layer GCN over POI
// features, and (3) a SkipGram objective with negative sampling that makes
// embeddings distinguish true contextual (adjacent) regions. A logistic
// head is then trained on the frozen embeddings. The transition
// -reconstruction term is omitted as in the paper (no taxi data).
class MmreBaseline : public eval::Detector {
 public:
  explicit MmreBaseline(const TrainOptions& options) : options_(options) {}

  std::string name() const override { return "MMRE"; }

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

 private:
  // Embedding of all regions from the current parameters.
  ag::VarPtr EmbedAll() const;

  TrainOptions options_;
  core::BatchInputs city_;  // The whole city, built by Train.
  std::unique_ptr<nn::Linear> enc1_, enc2_, enc3_;  // 120-84-64 encoder.
  std::unique_ptr<nn::Linear> dec1_, dec2_, dec3_;  // Symmetric decoder.
  std::unique_ptr<nn::GcnLayer> poi_g1_, poi_g2_;
  std::unique_ptr<nn::Linear> fuse_;
  std::unique_ptr<nn::Linear> head_;
  Tensor embeddings_;  // Frozen embeddings after the unsupervised phase.
  double epoch_seconds_ = 0.0;
  std::vector<double> epoch_history_;
  double inference_seconds_ = 0.0;
};

}  // namespace uv::baselines

#endif  // UV_BASELINES_MMRE_BASELINE_H_
