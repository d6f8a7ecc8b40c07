#ifndef UV_BASELINES_MUVFCN_BASELINE_H_
#define UV_BASELINES_MUVFCN_BASELINE_H_

#include <memory>

#include "autograd/ops.h"
#include "baselines/common.h"
#include "nn/linear.h"

namespace uv::baselines {

// MUVFCN baseline (paper Appendix I-A): fully convolutional network in the
// FCN-8s spirit over the tiles; average pooling on the output maps yields a
// 32-d feature vector for the final prediction. Mini-batched training on
// labeled tiles.
class MuvfcnBaseline : public eval::Detector {
 public:
  explicit MuvfcnBaseline(const TrainOptions& options) : options_(options) {}

  std::string name() const override { return "MUVFCN"; }

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
  ag::VarPtr ForwardTiles(const ag::VarPtr& tiles) const;
  std::vector<ag::VarPtr> Params() const;

  TrainOptions options_;
  Conv2dSpec spec1_, spec2_, spec3_;
  ag::VarPtr c1w_, c1b_, c2w_, c2b_, c3w_, c3b_;
  std::unique_ptr<nn::Linear> head_;
  double epoch_seconds_ = 0.0;
  std::vector<double> epoch_history_;
  double inference_seconds_ = 0.0;
};

}  // namespace uv::baselines

#endif  // UV_BASELINES_MUVFCN_BASELINE_H_
