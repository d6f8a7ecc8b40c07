#ifndef UV_BASELINES_UVLENS_BASELINE_H_
#define UV_BASELINES_UVLENS_BASELINE_H_

#include <memory>

#include "autograd/ops.h"
#include "baselines/common.h"
#include "nn/linear.h"

namespace uv::baselines {

// UVLens baseline (paper Appendix I-A, adapted exactly as the paper adapts
// it): histogram-equalized tiles, a CNN backbone extracting feature maps,
// and stacked fully connected layers for the final prediction. RPN and
// ROIPooling are omitted because the fixed grid already provides candidate
// boxes. Regions are independent, so training runs on labeled tiles only
// (mini-batched).
class UvLensBaseline : public eval::Detector {
 public:
  explicit UvLensBaseline(const TrainOptions& options) : options_(options) {}

  std::string name() const override { return "UVLens"; }

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
  Tensor equalized_;  // Histogram-equalized tiles, built at Train time.
  Conv2dSpec spec1_, spec2_;
  ag::VarPtr conv1_w_, conv1_b_, conv2_w_, conv2_b_;
  std::unique_ptr<nn::Linear> fc1_, fc2_, fc3_, head_;
  double epoch_seconds_ = 0.0;
  std::vector<double> epoch_history_;
  double inference_seconds_ = 0.0;
};

}  // namespace uv::baselines

#endif  // UV_BASELINES_UVLENS_BASELINE_H_
