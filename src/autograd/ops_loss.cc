#include <cmath>
#include <utility>

#include "autograd/ops.h"
#include "tensor/kernels/kernel_dispatch.h"
#include "util/check.h"

namespace uv::ag {

VarPtr BceWithLogits(const VarPtr& logits, const Tensor& labels,
                     const Tensor* sample_weights) {
  UV_CHECK_EQ(logits->cols(), 1);
  UV_CHECK_EQ(labels.rows(), logits->rows());
  UV_CHECK_EQ(labels.cols(), 1);
  if (sample_weights != nullptr) {
    UV_CHECK_EQ(sample_weights->rows(), logits->rows());
    UV_CHECK_EQ(sample_weights->cols(), 1);
  }
  const int n = logits->rows();
  UV_CHECK_GT(n, 0);

  // Stable per-sample loss: max(z,0) - z*y + log(1 + exp(-|z|)).
  double total_loss = 0.0;
  double total_weight = 0.0;
  for (int i = 0; i < n; ++i) {
    const float z = logits->value.at(i, 0);
    const float y = labels.at(i, 0);
    const float w = sample_weights ? sample_weights->at(i, 0) : 1.0f;
    const double l = std::max(z, 0.0f) - z * y + std::log1p(std::exp(-std::fabs(z)));
    total_loss += w * l;
    total_weight += w;
  }
  UV_CHECK(total_weight > 0.0);
  Tensor out(1, 1);
  out.at(0, 0) = static_cast<float>(total_loss / total_weight);

  VarPtr lv = logits;
  Tensor labels_copy = labels;
  Tensor weights_copy = sample_weights ? *sample_weights : Tensor();
  const float inv_weight = static_cast<float>(1.0 / total_weight);
  return MakeOp(
      std::move(out), {logits},
      [lv, labels_copy = std::move(labels_copy),
       weights_copy = std::move(weights_copy), inv_weight](Variable* self) {
        if (!lv->requires_grad) return;
        const float g = self->grad.at(0, 0);
        const int n = lv->rows();
        Tensor gl = Tensor::Uninit(n, 1);
        for (int i = 0; i < n; ++i) {
          const float z = lv->value.at(i, 0);
          const float y = labels_copy.at(i, 0);
          const float w = weights_copy.empty() ? 1.0f : weights_copy.at(i, 0);
          // d/dz = sigmoid(z) - y.
          gl.at(i, 0) = g * w * inv_weight * (kern::StableSigmoid(z) - y);
        }
        lv->AccumGrad(std::move(gl));
      },
      "bce_with_logits");
}

VarPtr PuRankLoss(const VarPtr& scores, const std::vector<int>& positive,
                  const std::vector<int>& unlabeled) {
  UV_CHECK_EQ(scores->cols(), 1);
  const long long pairs =
      static_cast<long long>(positive.size()) * unlabeled.size();
  Tensor out(1, 1);
  if (pairs == 0) {
    // No rankable pairs: the loss is identically zero and contributes no
    // gradient (e.g. a fold whose training split has no positive cluster).
    return MakeOp(
        std::move(out), {scores}, [](Variable*) {}, "pu_rank_loss");
  }

  double total = 0.0;
  for (int i : positive) {
    const float si = scores->value.at(i, 0);
    for (int j : unlabeled) {
      const double diff = 1.0 - (si - scores->value.at(j, 0));
      total += diff * diff;
    }
  }
  out.at(0, 0) = static_cast<float>(total / static_cast<double>(pairs));

  VarPtr sv = scores;
  std::vector<int> pos = positive;
  std::vector<int> neg = unlabeled;
  return MakeOp(
      std::move(out), {scores},
      [sv, pos = std::move(pos), neg = std::move(neg), pairs](Variable* self) {
        if (!sv->requires_grad) return;
        const float g =
            self->grad.at(0, 0) / static_cast<float>(pairs);
        Tensor gs(sv->rows(), 1);
        // d/ds_i = sum_j -2 (1 - (s_i - s_j)); d/ds_j = +2 (1 - (s_i - s_j)).
        for (int i : pos) {
          const float si = sv->value.at(i, 0);
          for (int j : neg) {
            const float diff = 1.0f - (si - sv->value.at(j, 0));
            gs.at(i, 0) += g * -2.0f * diff;
            gs.at(j, 0) += g * 2.0f * diff;
          }
        }
        sv->AccumGrad(std::move(gs));
      },
      "pu_rank_loss");
}

}  // namespace uv::ag
