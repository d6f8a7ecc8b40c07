#include <algorithm>
#include <cmath>
#include <vector>

#include "autograd/ops.h"
#include "obs/trace.h"
#include "tensor/forward_ops.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace uv::ag {
namespace {

// Scatter-adds the im2col gradient back to the image gradient.
void Col2ImAccum(const Tensor& col, const Conv2dSpec& s, float* img_grad) {
  const int oh = s.out_h(), ow = s.out_w();
  for (int c = 0; c < s.in_channels; ++c) {
    float* plane = img_grad + static_cast<size_t>(c) * s.in_h * s.in_w;
    for (int ky = 0; ky < s.kernel; ++ky) {
      for (int kx = 0; kx < s.kernel; ++kx) {
        const int row = (c * s.kernel + ky) * s.kernel + kx;
        const float* src = col.row(row);
        for (int oy = 0; oy < oh; ++oy) {
          const int iy = oy * s.stride + ky - s.pad;
          if (iy < 0 || iy >= s.in_h) continue;
          for (int ox = 0; ox < ow; ++ox) {
            const int ix = ox * s.stride + kx - s.pad;
            if (ix < 0 || ix >= s.in_w) continue;
            plane[iy * s.in_w + ix] += src[oy * ow + ox];
          }
        }
      }
    }
  }
}

}  // namespace

VarPtr Conv2d(const VarPtr& x, const VarPtr& w, const VarPtr& b,
              const Conv2dSpec& spec) {
  const int patch = spec.in_channels * spec.kernel * spec.kernel;
  const int oh = spec.out_h(), ow = spec.out_w();
  UV_CHECK_EQ(x->cols(), spec.in_channels * spec.in_h * spec.in_w);
  UV_CHECK_EQ(w->rows(), spec.out_channels);
  UV_CHECK_EQ(w->cols(), patch);
  UV_CHECK_EQ(b->rows(), 1);
  UV_CHECK_EQ(b->cols(), spec.out_channels);
  UV_CHECK_GT(oh, 0);
  UV_CHECK_GT(ow, 0);

  const int n = x->rows();
  Tensor out = Tensor::Uninit(n, spec.out_channels * oh * ow);
  // Packed on every call: an optimizer step changes w and b in place.
  Tensor packed;
  PackConv2dWeights(w->value, b->value, &packed);
  // Each image is independent and writes its own output row. The
  // workspace persists per worker thread across chunks and steps; the
  // kernel overwrites every output element, so reuse is deterministic and
  // allocation-free while the geometry stays the same. One span per chunk,
  // on the thread that runs it, so its self time is the kernel's.
  ParallelFor(0, n, kConvImageGrain, [&](int64_t i0, int64_t i1) {
    obs::SpanGuard span("conv2d_fwd", obs::SpanLevel::kFine, "batch",
                        i1 - i0);
    thread_local Conv2dWorkspace ws;
    for (int64_t i = i0; i < i1; ++i) {
      Conv2dForwardImage(x->value.row(static_cast<int>(i)), spec, packed,
                         /*relu=*/false, &ws, out.row(static_cast<int>(i)));
    }
  });

  VarPtr xv = x, wv = w, bv = b;
  return MakeOp(
      std::move(out), {x, w, b},
      [xv, wv, bv, spec, patch, oh, ow](Variable* self) {
        const int n = xv->rows();
        obs::SpanGuard bwd_span("conv2d_bwd", obs::SpanLevel::kFine, "batch",
                                n);
        Tensor* gx = xv->requires_grad ? &xv->EnsureGrad() : nullptr;
        Tensor* gw = wv->requires_grad ? &wv->EnsureGrad() : nullptr;
        Tensor* gb = bv->requires_grad ? &bv->EnsureGrad() : nullptr;

        // gx rows are disjoint per image; gw/gb accumulate across images,
        // so each chunk sums into a private partial that is reduced in
        // chunk order afterwards (fixed reduction tree, thread-invariant).
        const int64_t grain = kConvImageGrain;
        const int64_t num_chunks = (n + grain - 1) / grain;
        std::vector<Tensor> gw_parts(
            gw != nullptr ? static_cast<size_t>(num_chunks) : 0);
        std::vector<Tensor> gb_parts(
            gb != nullptr ? static_cast<size_t>(num_chunks) : 0);

        ParallelFor(0, n, grain, [&](int64_t i0, int64_t i1) {
          const int64_t chunk = i0 / grain;
          // Per-thread persistent scratch: col/gout are fully overwritten
          // per image, gcol is zero-filled by the beta=0 Gemm below.
          thread_local Tensor col;
          thread_local Tensor gout;
          thread_local Tensor gcol;
          col.ResizeUninit(patch, oh * ow);
          gout.ResizeUninit(spec.out_channels, oh * ow);
          gcol.ResizeUninit(patch, oh * ow);
          Tensor* gw_part = nullptr;
          Tensor* gb_part = nullptr;
          if (gw != nullptr) {
            gw_parts[chunk] = Tensor(gw->rows(), gw->cols());
            gw_part = &gw_parts[chunk];
          }
          if (gb != nullptr) {
            gb_parts[chunk] = Tensor(1, spec.out_channels);
            gb_part = &gb_parts[chunk];
          }
          for (int64_t i = i0; i < i1; ++i) {
            // Reinterpret this sample's output gradient as (out_c x oh*ow).
            const float* g = self->grad.row(static_cast<int>(i));
            for (int c = 0; c < spec.out_channels; ++c) {
              std::copy(g + static_cast<size_t>(c) * oh * ow,
                        g + static_cast<size_t>(c + 1) * oh * ow,
                        gout.row(c));
            }
            if (gb_part != nullptr) {
              for (int c = 0; c < spec.out_channels; ++c) {
                float acc = 0.0f;
                const float* row = gout.row(c);
                for (int p = 0; p < oh * ow; ++p) acc += row[p];
                gb_part->at(0, c) += acc;
              }
            }
            if (gw_part != nullptr) {
              Im2Col(xv->value.row(static_cast<int>(i)), spec, &col);
              Gemm(false, true, 1.0f, gout, col, 1.0f, gw_part);
            }
            if (gx != nullptr) {
              Gemm(true, false, 1.0f, wv->value, gout, 0.0f, &gcol);
              Col2ImAccum(gcol, spec, gx->row(static_cast<int>(i)));
            }
          }
        });

        for (int64_t c = 0; c < num_chunks; ++c) {
          if (gw != nullptr) Axpy(1.0f, gw_parts[c], gw);
          if (gb != nullptr) Axpy(1.0f, gb_parts[c], gb);
        }
      },
      "conv2d");
}

VarPtr MaxPool2d(const VarPtr& x, int channels, int h, int w, int kernel,
                 int stride) {
  UV_CHECK_EQ(x->cols(), channels * h * w);
  const int oh = (h - kernel) / stride + 1;
  const int ow = (w - kernel) / stride + 1;
  UV_CHECK_GT(oh, 0);
  UV_CHECK_GT(ow, 0);
  const int n = x->rows();

  const int out_cols = channels * oh * ow;
  Tensor out = Tensor::Uninit(n, out_cols);
  // argmax[i][o] = flat input index within row i that won output o; only
  // a backward pass reads it, so a grad-free call never builds it.
  std::shared_ptr<std::vector<int>> argmax;
  if (NeedsGrad(*x)) {
    argmax = std::make_shared<std::vector<int>>(static_cast<size_t>(n) *
                                                out_cols);
  }
  ParallelFor(0, n, kConvImageGrain, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      MaxPool2dImage(x->value.row(static_cast<int>(i)), channels, h, w, kernel,
                     stride, out.row(static_cast<int>(i)),
                     argmax != nullptr
                         ? argmax->data() + static_cast<size_t>(i) * out_cols
                         : nullptr);
    }
  });

  VarPtr xv = x;
  return MakeOp(
      std::move(out), {x},
      [xv, argmax, out_cols](Variable* self) {
        if (!xv->requires_grad) return;
        Tensor& gx = xv->EnsureGrad();
        ParallelFor(0, self->grad.rows(), kConvImageGrain,
                    [&](int64_t i0, int64_t i1) {
                      for (int64_t i = i0; i < i1; ++i) {
                        const float* g = self->grad.row(static_cast<int>(i));
                        const int* am =
                            argmax->data() + static_cast<size_t>(i) * out_cols;
                        float* dst = gx.row(static_cast<int>(i));
                        for (int o = 0; o < out_cols; ++o) dst[am[o]] += g[o];
                      }
                    });
      },
      "max_pool2d");
}

VarPtr GlobalAvgPool(const VarPtr& x, int channels, int h, int w) {
  UV_CHECK_EQ(x->cols(), channels * h * w);
  const int n = x->rows();
  const int plane = h * w;
  Tensor out = Tensor::Uninit(n, channels);
  ParallelFor(0, n, kConvImageGrain, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      const float* img = x->value.row(static_cast<int>(i));
      float* dst = out.row(static_cast<int>(i));
      for (int c = 0; c < channels; ++c) {
        const float* p = img + static_cast<size_t>(c) * plane;
        float acc = 0.0f;
        for (int q = 0; q < plane; ++q) acc += p[q];
        dst[c] = acc / static_cast<float>(plane);
      }
    }
  });
  VarPtr xv = x;
  return MakeOp(
      std::move(out), {x},
      [xv, channels, plane](Variable* self) {
        if (!xv->requires_grad) return;
        Tensor& gx = xv->EnsureGrad();
        const float inv = 1.0f / static_cast<float>(plane);
        ParallelFor(0, self->grad.rows(), kConvImageGrain,
                    [&](int64_t i0, int64_t i1) {
                      for (int64_t i = i0; i < i1; ++i) {
                        const float* g = self->grad.row(static_cast<int>(i));
                        float* dst = gx.row(static_cast<int>(i));
                        for (int c = 0; c < channels; ++c) {
                          const float gv = g[c] * inv;
                          float* p = dst + static_cast<size_t>(c) * plane;
                          for (int q = 0; q < plane; ++q) p[q] += gv;
                        }
                      }
                    });
      },
      "global_avg_pool");
}

}  // namespace uv::ag
