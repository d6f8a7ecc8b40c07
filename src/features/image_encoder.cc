#include "features/image_encoder.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "obs/trace.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace uv::features {
namespace {

// Per-worker buffers of the encoder's image loop: one convolution
// workspace per layer (their shapes differ, so a shared one would be
// re-derived on every layer) and the two planes the stack alternates
// between.
struct EncodeScratch {
  std::array<Conv2dWorkspace, 3> conv;
  Tensor act;     // A convolution's output; layer 1's is the largest.
  Tensor pooled;  // A pool's output, the next convolution's input.
};

}  // namespace

ConvEncoder::ConvEncoder(const Options& options) : options_(options) {
  UV_CHECK_GE(options.image_size, 8);
  options_.batch_size = std::max(1, options.batch_size);
  Rng rng(options.seed);
  constexpr std::array<int, 3> kChannels = {8, 16, 32};
  int in_c = 3, side = options.image_size;
  for (size_t l = 0; l < layers_.size(); ++l) {
    Layer& layer = layers_[l];
    const int out_c = kChannels[l];
    layer.spec = {in_c, side, side, out_c, /*kernel=*/3, /*stride=*/1,
                  /*pad=*/1};
    layer.w = Tensor(out_c, in_c * 9);
    // He-style init keeps activation magnitudes stable through the stack.
    layer.w.RandomNormal(&rng, std::sqrt(2.0f / (in_c * 9)));
    layer.b = Tensor(1, out_c);
    PackConv2dWeights(layer.w, layer.b, &layer.packed);
    in_c = out_c;
    side /= 2;
  }
  proj_ = Tensor(in_c * side * side, options.out_dim);
  proj_.GlorotUniform(&rng);
}

Tensor ConvEncoder::Encode(const Tensor& images) const {
  UV_CHECK_EQ(images.cols(), 3 * options_.image_size * options_.image_size);
  const int n = images.rows();
  const Conv2dSpec& first = layers_.front().spec;
  Tensor out = Tensor::Uninit(n, options_.out_dim);
  Tensor flat;
  Tensor projected;
  for (int begin = 0; begin < n; begin += options_.batch_size) {
    const int rows = std::min(n - begin, options_.batch_size);
    flat.ResizeUninit(rows, proj_.rows());
    ParallelFor(0, rows, kConvImageGrain, [&](int64_t i0, int64_t i1) {
      // One span per chunk, on the thread that runs it, so the span's self
      // time is the conv stack's own work, not the wait for the workers.
      obs::SpanGuard span("conv2d_fwd", obs::SpanLevel::kFine, "batch",
                          i1 - i0);
      thread_local EncodeScratch scratch;
      scratch.act.ResizeUninit(
          1, first.out_channels * first.out_h() * first.out_w());
      scratch.pooled.ResizeUninit(1, layers_[1].spec.in_channels *
                                         layers_[1].spec.in_h *
                                         layers_[1].spec.in_w);
      for (int64_t i = i0; i < i1; ++i) {
        const int r = static_cast<int>(i);
        const float* in = images.row(begin + r);
        for (size_t l = 0; l < layers_.size(); ++l) {
          const Layer& layer = layers_[l];
          const Conv2dSpec& s = layer.spec;
          float* pooled =
              l + 1 < layers_.size() ? scratch.pooled.data() : flat.row(r);
          Conv2dForwardImage(in, s, layer.packed, /*relu=*/true,
                             &scratch.conv[l], scratch.act.data());
          MaxPool2dImage(scratch.act.data(), s.out_channels, s.out_h(),
                         s.out_w(), 2, 2, pooled, nullptr);
          in = pooled;
        }
      }
    });
    projected.ResizeUninit(rows, options_.out_dim);
    Gemm(false, false, 1.0f, flat, proj_, 0.0f, &projected);
    std::memcpy(out.row(begin), projected.data(),
                sizeof(float) * static_cast<size_t>(projected.size()));
  }
  return out;
}

Tensor HistogramEqualize(const Tensor& images, int channels) {
  UV_CHECK_GT(channels, 0);
  UV_CHECK_EQ(images.cols() % channels, 0);
  const int plane = images.cols() / channels;
  constexpr int kBins = 64;
  Tensor out(images.rows(), images.cols());
  std::vector<int> hist(kBins);
  for (int i = 0; i < images.rows(); ++i) {
    const float* src = images.row(i);
    float* dst = out.row(i);
    for (int c = 0; c < channels; ++c) {
      const float* p = src + static_cast<size_t>(c) * plane;
      float* q = dst + static_cast<size_t>(c) * plane;
      std::fill(hist.begin(), hist.end(), 0);
      for (int k = 0; k < plane; ++k) {
        const int bin = std::min(
            kBins - 1, static_cast<int>(std::clamp(p[k], 0.0f, 1.0f) *
                                        kBins));
        ++hist[bin];
      }
      // Cumulative distribution -> equalized intensity.
      std::vector<float> cdf(kBins);
      int acc = 0;
      for (int b = 0; b < kBins; ++b) {
        acc += hist[b];
        cdf[b] = static_cast<float>(acc) / plane;
      }
      for (int k = 0; k < plane; ++k) {
        const int bin = std::min(
            kBins - 1, static_cast<int>(std::clamp(p[k], 0.0f, 1.0f) *
                                        kBins));
        q[k] = cdf[bin];
      }
    }
  }
  return out;
}

}  // namespace uv::features
