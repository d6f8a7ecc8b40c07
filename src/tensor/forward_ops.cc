#include "tensor/forward_ops.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "obs/trace.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace uv {

void ReluInPlace(Tensor* t) {
  float* d = t->data();
  for (int64_t i = 0; i < t->size(); ++i) d[i] = ReluScalar(d[i]);
}

void LeakyReluInPlace(float negative_slope, Tensor* t) {
  float* d = t->data();
  for (int64_t i = 0; i < t->size(); ++i) {
    d[i] = LeakyReluScalar(d[i], negative_slope);
  }
}

void SigmoidInPlace(Tensor* t) {
  float* d = t->data();
  for (int64_t i = 0; i < t->size(); ++i) d[i] = kern::StableSigmoid(d[i]);
}

namespace {

// [*lo, *hi): the output positions o in [0, out) whose input coordinate
// o * stride + offset lies in [0, in).
void InRangeOutputs(int offset, int stride, int in, int out, int* lo,
                    int* hi) {
  const int last = in - 1 - offset;  // o * stride <= last.
  *hi = last < 0 ? 0 : std::min(out, last / stride + 1);
  const int first = offset >= 0 ? 0 : (stride - 1 - offset) / stride;
  *lo = std::min(first, *hi);
}

}  // namespace

void Im2Col(const float* image, const Conv2dSpec& s, Tensor* col) {
  obs::SpanGuard span("im2col", obs::SpanLevel::kFine);
  const int oh = s.out_h(), ow = s.out_w();
  for (int c = 0; c < s.in_channels; ++c) {
    const float* plane = image + static_cast<size_t>(c) * s.in_h * s.in_w;
    for (int ky = 0; ky < s.kernel; ++ky) {
      int oy_lo, oy_hi;
      InRangeOutputs(ky - s.pad, s.stride, s.in_h, oh, &oy_lo, &oy_hi);
      for (int kx = 0; kx < s.kernel; ++kx) {
        int ox_lo, ox_hi;
        InRangeOutputs(kx - s.pad, s.stride, s.in_w, ow, &ox_lo, &ox_hi);
        float* dst = col->row((c * s.kernel + ky) * s.kernel + kx);
        std::fill(dst, dst + oy_lo * ow, 0.0f);
        for (int oy = oy_lo; oy < oy_hi; ++oy) {
          // Input column of output ox is ox * stride + kx - pad.
          const float* src = plane + (oy * s.stride + ky - s.pad) * s.in_w;
          float* out = dst + oy * ow;
          std::fill(out, out + ox_lo, 0.0f);
          for (int ox = ox_lo; ox < ox_hi; ++ox) {
            out[ox] = src[ox * s.stride + kx - s.pad];
          }
          std::fill(out + ox_hi, out + ow, 0.0f);
        }
        std::fill(dst + oy_hi * ow, dst + oh * ow, 0.0f);
      }
    }
  }
}

namespace {

// Columns of the packed weights: out_c rounded up to whole vectors.
int PackedConvCols(int out_channels) {
  constexpr int kBlock = kern::kConvTile;
  return (out_channels + kBlock - 1) / kBlock * kBlock;
}

// Sizes ws->padded for `s` and lists the offsets into it of every tap and
// of every output pixel's window origin, the latter padded to whole
// kConvTile tiles with offset 0.
void PrepareConv2dWorkspace(const Conv2dSpec& s, Conv2dWorkspace* ws) {
  const int hp = s.in_h + 2 * s.pad, wp = s.in_w + 2 * s.pad;
  const int oh = s.out_h(), ow = s.out_w();
  constexpr int kTile = kern::kConvTile;
  ws->spec = s;
  ws->padded.ResizeUninit(s.in_channels, hp * wp);
  ws->tap_offsets.clear();
  for (int c = 0; c < s.in_channels; ++c) {
    for (int ky = 0; ky < s.kernel; ++ky) {
      for (int kx = 0; kx < s.kernel; ++kx) {
        ws->tap_offsets.push_back((c * hp + ky) * wp + kx);
      }
    }
  }
  ws->pixel_offsets.assign((oh * ow + kTile - 1) / kTile * kTile, 0);
  for (int oy = 0; oy < oh; ++oy) {
    for (int ox = 0; ox < ow; ++ox) {
      ws->pixel_offsets[oy * ow + ox] = (oy * wp + ox) * s.stride;
    }
  }
}

// Copies the CHW image into `padded` inside a `pad`-wide zero border.
void PadImage(const float* image, const Conv2dSpec& s, float* padded) {
  const int hp = s.in_h + 2 * s.pad, wp = s.in_w + 2 * s.pad;
  for (int c = 0; c < s.in_channels; ++c) {
    const float* plane = image + static_cast<size_t>(c) * s.in_h * s.in_w;
    float* dst = padded + static_cast<size_t>(c) * hp * wp;
    // Each row's right margin runs on into the next row's left margin.
    std::fill(dst, dst + s.pad * wp + s.pad, 0.0f);
    for (int y = 0; y < s.in_h; ++y) {
      float* row = dst + (y + s.pad) * wp + s.pad;
      std::memcpy(row, plane + y * s.in_w, sizeof(float) * s.in_w);
      std::fill(row + s.in_w, row + s.in_w + 2 * s.pad, 0.0f);
    }
    std::fill(dst + (s.in_h + s.pad) * wp + s.pad, dst + hp * wp, 0.0f);
  }
}

}  // namespace

void PackConv2dWeights(const Tensor& w, const Tensor& b, Tensor* packed) {
  const int out_c = w.rows(), taps = w.cols();
  UV_CHECK_EQ(b.rows(), 1);
  UV_CHECK_EQ(b.cols(), out_c);
  *packed = Tensor(taps + 1, PackedConvCols(out_c));
  for (int c = 0; c < out_c; ++c) {
    for (int t = 0; t < taps; ++t) packed->at(t, c) = w.at(c, t);
    packed->at(taps, c) = b[c];
  }
}

void Conv2dForwardImage(const float* image, const Conv2dSpec& spec,
                        const Tensor& packed, bool relu, Conv2dWorkspace* ws,
                        float* out) {
  const int taps = spec.in_channels * spec.kernel * spec.kernel;
  UV_CHECK_EQ(packed.rows(), taps + 1);
  UV_CHECK_EQ(packed.cols(), PackedConvCols(spec.out_channels));
  if (ws->spec != spec) PrepareConv2dWorkspace(spec, ws);
  PadImage(image, spec, ws->padded.data());
  kern::ConvArgs args;
  args.taps = taps;
  args.pixels = spec.out_h() * spec.out_w();
  args.out_channels = spec.out_channels;
  args.image = ws->padded.data();
  args.tap_offsets = ws->tap_offsets.data();
  args.pixel_offsets = ws->pixel_offsets.data();
  args.weights = packed.data();
  args.relu = relu;
  args.out = out;
  kern::Active().conv2d(args);
}

void MaxPool2dImage(const float* image, int channels, int h, int w,
                    int kernel, int stride, float* out, int* argmax) {
  if (argmax == nullptr) {
    kern::PoolArgs args;
    args.channels = channels;
    args.h = h;
    args.w = w;
    args.kernel = kernel;
    args.stride = stride;
    args.image = image;
    args.out = out;
    kern::Active().max_pool(args);
    return;
  }
  // `v > best` keeps a window's first maximum and never selects a NaN, as
  // the kernel's Max does.
  const int oh = (h - kernel) / stride + 1;
  const int ow = (w - kernel) / stride + 1;
  for (int c = 0; c < channels; ++c) {
    const float* plane = image + static_cast<size_t>(c) * h * w;
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        float best = -std::numeric_limits<float>::infinity();
        int best_idx = 0;
        for (int ky = 0; ky < kernel; ++ky) {
          const int row = (oy * stride + ky) * w + ox * stride;
          for (int kx = 0; kx < kernel; ++kx) {
            const float v = plane[row + kx];
            best_idx = v > best ? row + kx : best_idx;
            best = v > best ? v : best;
          }
        }
        const int o = (c * oh + oy) * ow + ox;
        out[o] = best;
        argmax[o] = c * h * w + best_idx;
      }
    }
  }
}

void NeighborWeightedSumInto(const Tensor& alpha, const Tensor& x,
                             const std::vector<int>& src_ids,
                             const std::vector<int>& offsets, Tensor* out) {
  UV_CHECK_EQ(alpha.cols(), 1);
  UV_CHECK_EQ(static_cast<size_t>(alpha.rows()), src_ids.size());
  const int num_segments = static_cast<int>(offsets.size()) - 1;
  UV_CHECK_EQ(offsets.back(), alpha.rows());
  const int d = x.cols();
  out->ResizeUninit(num_segments, d);
  out->Zero();
  const float* a = alpha.data();
  const int* src = src_ids.data();
  const int src_rows = x.rows();
  for (int e = 0; e < alpha.rows(); ++e) {
    UV_CHECK_GE(src[e], 0);
    UV_CHECK_LT(src[e], src_rows);
  }
  const auto& off = offsets;
  ParallelFor(0, num_segments, kSegmentGrain, [&](int64_t s0, int64_t s1) {
    for (int64_t i = s0; i < s1; ++i) {
      float* dst = out->row(static_cast<int>(i));
      for (int e = off[i]; e < off[i + 1]; ++e) {
        const float w = a[e];
        const float* f = x.row(src[e]);
        for (int c = 0; c < d; ++c) dst[c] += w * f[c];
      }
    }
  });
}

SegmentDestIndex BuildSegmentDestIndex(const std::vector<int>& dest_of_source,
                                       int num_destinations) {
  SegmentDestIndex index;
  index.offsets.assign(num_destinations + 1, 0);
  for (const int d : dest_of_source) {
    if (d < 0) continue;
    UV_CHECK_LT(d, num_destinations);
    ++index.offsets[d + 1];
  }
  for (int d = 0; d < num_destinations; ++d) {
    index.offsets[d + 1] += index.offsets[d];
  }
  index.sources.resize(index.offsets.back());
  std::vector<int> cursor(index.offsets.begin(), index.offsets.end() - 1);
  for (size_t s = 0; s < dest_of_source.size(); ++s) {
    const int d = dest_of_source[s];
    if (d >= 0) index.sources[cursor[d]++] = static_cast<int>(s);
  }
  return index;
}

void SegmentSumInto(const Tensor& x, const SegmentDestIndex& dest,
                    Tensor* out) {
  const int num_segments = static_cast<int>(dest.offsets.size()) - 1;
  const int cols = x.cols();
  out->ResizeUninit(num_segments, cols);
  out->Zero();
  ParallelFor(0, num_segments, kSegmentGrain, [&](int64_t k0, int64_t k1) {
    for (int64_t k = k0; k < k1; ++k) {
      float* dst = out->row(static_cast<int>(k));
      const int lo = dest.offsets[k];
      const int hi = dest.offsets[k + 1];
      for (int s = lo; s < hi; ++s) {
        const float* src = x.row(dest.sources[s]);
        for (int c = 0; c < cols; ++c) dst[c] += src[c];
      }
    }
  });
}

void MulColBroadcastInPlace(const Tensor& scale, Tensor* x) {
  UV_CHECK_EQ(scale.rows(), x->rows());
  UV_CHECK_EQ(scale.cols(), 1);
  for (int r = 0; r < x->rows(); ++r) {
    const float s = scale.at(r, 0);
    float* row = x->row(r);
    for (int c = 0; c < x->cols(); ++c) row[c] *= s;
  }
}

void MulRowVectorInPlace(const Tensor& v, Tensor* x) {
  UV_CHECK_EQ(v.rows(), 1);
  UV_CHECK_EQ(v.cols(), x->cols());
  const float* vd = v.data();
  for (int r = 0; r < x->rows(); ++r) {
    float* row = x->row(r);
    for (int c = 0; c < x->cols(); ++c) row[c] *= vd[c];
  }
}

int GatedMlpFilterSize(int d_in, int d_hidden) {
  return d_in * d_hidden + 2 * d_hidden + 1;
}

void GatedMlpFilterTile(const Tensor& w_f, const Tensor& b_f,
                        GatedMlpTile* tile) {
  tile->filter.ResizeUninit(tile->context.rows(), w_f.cols());
  GemmBiasAct(false, false, 1.0f, tile->context, w_f, 0.0f, &tile->filter,
              &b_f, kern::Activation::kSigmoid);
}

namespace {

// One row of the slave classifier: writes the post-ReLU hidden activations
// (d_hidden floats) into h and returns the logit. w1/b1/w2/b2 are the
// master parameters' data (d_in x d_hidden, d_hidden, d_hidden, 1).
float GatedMlpRow(const float* x, const float* filter, int d_in,
                  int d_hidden, const float* w1, const float* b1,
                  const float* w2, const float* b2, float* h) {
  const float* f_b1 = filter + d_in * d_hidden;
  const float* f_w2 = f_b1 + d_hidden;
  const float* f_b2 = f_w2 + d_hidden;
  // Each h[c] accumulates over r ascending, as a dot product per hidden
  // unit would; walking r outermost only makes the reads contiguous.
  for (int c = 0; c < d_hidden; ++c) h[c] = b1[c] * f_b1[c];
  for (int r = 0; r < d_in; ++r) {
    const float xr = x[r];
    const float* w1r = w1 + r * d_hidden;
    const float* f1r = filter + r * d_hidden;
    for (int c = 0; c < d_hidden; ++c) h[c] += xr * w1r[c] * f1r[c];
  }
  for (int c = 0; c < d_hidden; ++c) h[c] = ReluScalar(h[c]);
  float logit = b2[0] * f_b2[0];
  for (int c = 0; c < d_hidden; ++c) logit += h[c] * w2[c] * f_w2[c];
  return logit;
}

}  // namespace

void GatedMlpForward(const Tensor& x, const Tensor& context,
                     const Tensor& w_f, const Tensor& b_f, const Tensor& w1,
                     const Tensor& b1, const Tensor& w2, const Tensor& b2,
                     GatedMlpTile* tile, Tensor* out, Tensor* hidden,
                     const std::vector<int>* rows) {
  const int n = x.rows();
  const int d_in = x.cols();
  const int d_hidden = w1.cols();
  const int context_dim = context.cols();
  UV_CHECK_EQ(w1.rows(), d_in);
  UV_CHECK_EQ(b1.rows(), 1);
  UV_CHECK_EQ(b1.cols(), d_hidden);
  UV_CHECK_EQ(w2.rows(), d_hidden);
  UV_CHECK_EQ(w2.cols(), 1);
  UV_CHECK_EQ(b2.rows(), 1);
  UV_CHECK_EQ(b2.cols(), 1);
  UV_CHECK_EQ(context.rows(), n);
  UV_CHECK_EQ(w_f.rows(), context_dim);
  UV_CHECK_EQ(w_f.cols(), GatedMlpFilterSize(d_in, d_hidden));

  out->ResizeUninit(n, 1);
  hidden->ResizeUninit(n, d_hidden);
  if (rows != nullptr) {
    out->Zero();
    hidden->Zero();
    for (const int r : *rows) {
      UV_CHECK_GE(r, 0);
      UV_CHECK_LT(r, n);
    }
  }
  const int count = rows != nullptr ? static_cast<int>(rows->size()) : n;
  auto row_of = [rows](int i) { return rows != nullptr ? (*rows)[i] : i; };
  for (int i0 = 0; i0 < count; i0 += kGatedMlpTileRows) {
    const int tile_rows = std::min(kGatedMlpTileRows, count - i0);
    tile->context.ResizeUninit(tile_rows, context_dim);
    for (int i = 0; i < tile_rows; ++i) {
      std::memcpy(tile->context.row(i), context.row(row_of(i0 + i)),
                  sizeof(float) * static_cast<size_t>(context_dim));
    }
    GatedMlpFilterTile(w_f, b_f, tile);
    for (int i = 0; i < tile_rows; ++i) {
      const int r = row_of(i0 + i);
      (*out)[r] = GatedMlpRow(x.row(r), tile->filter.row(i), d_in, d_hidden,
                              w1.data(), b1.data(), w2.data(), b2.data(),
                              hidden->row(r));
    }
  }
}

}  // namespace uv
