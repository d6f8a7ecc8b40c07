#ifndef UV_TENSOR_KERNELS_EDGE_LANES_IMPL_H_
#define UV_TENSOR_KERNELS_EDGE_LANES_IMPL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "tensor/kernels/kernel_dispatch.h"
#include "tensor/kernels/simd.h"

namespace uv::kern {

// ---------------------------------------------------------------------------
// Graph attention with heads in lanes (see EdgeLaneArgs), templated over
// the 8-lane vector type like kernels_impl.h. Each backend instantiates it
// in its own TU built with -ffp-contract=off (edge_lanes_scalar.cc,
// edge_lanes_avx2.cc): these bodies must round every multiply and add
// separately, because they reproduce per-head loops that the portable
// library build never fuses, and GCC contracts even _mm256_mul_ps feeding
// _mm256_add_ps into an FMA when -mfma is on.
//
// With kEdgeLanes heads the passes run on whole vectors over interleaved
// source rows; with fewer, the same formulas run one lane at a time over
// each head's own rows, as the per-head loops did. Per lane and per
// element the operations and their order are those of the per-head scalar
// chain, so every result is bit-identical to it: std::exp stays scalar per
// lane and the softmax denominator is a double sum per lane.
// ---------------------------------------------------------------------------

template <class V8>
struct EdgeLanes {
  static constexpr int kL = V8::kLanes;
  static_assert(kL == kEdgeLanes);

  // Columns [c0, c0 + w) of the kL rows rows[l] (w <= kL), transposed so
  // cols[c] holds column c0 + c across the lanes; zeros past w.
  static void LoadByColumn(const float* const* rows, int c0, int w,
                           V8* cols) {
    for (int l = 0; l < kL; ++l) {
      if (w == kL) {
        cols[l] = V8::Load(rows[l] + c0);
      } else {
        float buf[kL] = {};
        std::copy(rows[l] + c0, rows[l] + c0 + w, buf);
        cols[l] = V8::Load(buf);
      }
    }
    V8::Transpose8(cols);
  }

  // The inverse of LoadByColumn: stores w columns back into the rows.
  static void StoreByColumn(V8* cols, int c0, int w, float* const* rows) {
    V8::Transpose8(cols);
    for (int l = 0; l < kL; ++l) {
      if (w == kL) {
        V8::Store(rows[l] + c0, cols[l]);
      } else {
        float buf[kL];
        V8::Store(buf, cols[l]);
        std::copy(buf, buf + w, rows[l] + c0);
      }
    }
  }

  static V8 GatherLanes(float* const* p, int64_t r) {
    float buf[kL];
    for (int l = 0; l < kL; ++l) buf[l] = p[l][r];
    return V8::Load(buf);
  }

  static void ScatterLanes(V8 v, int64_t r, float* const* p) {
    float buf[kL];
    V8::Store(buf, v);
    for (int l = 0; l < kL; ++l) p[l][r] = buf[l];
  }

  // ------------------------------------------------------------------
  // Forward. Softmax pass: alpha[e] = exp(z_e - max z) / sum over the
  // segment, z_e = LeakyReLU(s_dst[i] + s_src[src[e]]).
  // ------------------------------------------------------------------
  static void Softmax(const EdgeLaneArgs& g, int64_t begin, int64_t end) {
    if (g.lanes != kL) return SoftmaxPerLane(g, begin, end);
    const V8 zero = V8::Zero();
    const V8 slope = V8::Broadcast(g.negative_slope);
    for (int64_t i = begin; i < end; ++i) {
      const int lo = g.offsets[i], hi = g.offsets[i + 1];
      if (lo == hi) continue;
      const V8 sd = V8::Load(g.s_dst + i * g.ld_score);
      V8 mx = V8::Broadcast(-1e30f);
      for (int e = lo; e < hi; ++e) {
        const V8 pre =
            V8::Add(sd, V8::Load(g.s_src + g.src[e] * g.ld_score));
        const V8 z = V8::SelectGt(pre, zero, pre, V8::Mul(slope, pre));
        V8::Store(g.alpha + e * g.ld_edge, z);
        mx = V8::Max(z, mx);
      }
      float mxl[kL];
      V8::Store(mxl, mx);
      double total[kL] = {};
      for (int e = lo; e < hi; ++e) {
        float* a = g.alpha + e * g.ld_edge;
        for (int l = 0; l < kL; ++l) {
          a[l] = std::exp(a[l] - mxl[l]);
          total[l] += a[l];
        }
      }
      float inv[kL];
      for (int l = 0; l < kL; ++l) {
        inv[l] = total[l] > 0.0 ? static_cast<float>(1.0 / total[l]) : 0.0f;
      }
      const V8 vinv = V8::Load(inv);
      for (int e = lo; e < hi; ++e) {
        float* a = g.alpha + e * g.ld_edge;
        V8::Store(a, V8::Mul(V8::Load(a), vinv));
      }
    }
  }

  static void SoftmaxPerLane(const EdgeLaneArgs& g, int64_t begin,
                             int64_t end) {
    for (int l = 0; l < g.lanes; ++l) {
      for (int64_t i = begin; i < end; ++i) {
        const int lo = g.offsets[i], hi = g.offsets[i + 1];
        if (lo == hi) continue;
        const float sd = g.s_dst[i * g.ld_score + l];
        float mx = -1e30f;
        for (int e = lo; e < hi; ++e) {
          const float pre = sd + g.s_src[g.src[e] * g.ld_score + l];
          const float z = pre > 0.0f ? pre : g.negative_slope * pre;
          g.alpha[e * g.ld_edge + l] = z;
          mx = std::max(mx, z);
        }
        double total = 0.0;
        for (int e = lo; e < hi; ++e) {
          float& a = g.alpha[e * g.ld_edge + l];
          a = std::exp(a - mx);
          total += a;
        }
        const float inv =
            total > 0.0 ? static_cast<float>(1.0 / total) : 0.0f;
        for (int e = lo; e < hi; ++e) g.alpha[e * g.ld_edge + l] *= inv;
      }
    }
  }

  // Weighted-sum pass: out[i] = sum over the segment's edges, ascending,
  // of alpha[e] * x[src[e]], from zero (empty segments write zeros).
  static void WeightedSum(const EdgeLaneArgs& g, int64_t begin,
                          int64_t end) {
    if (g.lanes != kL) return WeightedSumPerLane(g, begin, end);
    float* rows[kL];
    for (int64_t i = begin; i < end; ++i) {
      const int lo = g.offsets[i], hi = g.offsets[i + 1];
      for (int l = 0; l < kL; ++l) rows[l] = g.out + i * g.ld_out + l * g.d;
      for (int c0 = 0; c0 < g.d; c0 += kL) {
        const int w = std::min(kL, g.d - c0);
        V8 acc[kL];
        for (int c = 0; c < kL; ++c) acc[c] = V8::Zero();
        for (int e = lo; e < hi; ++e) {
          const V8 a = V8::Load(g.alpha + e * g.ld_edge);
          const float* x = g.x + g.src[e] * g.ld_x + c0 * kL;
          for (int c = 0; c < w; ++c) {
            acc[c] = V8::Add(acc[c], V8::Mul(a, V8::Load(x + c * kL)));
          }
        }
        StoreByColumn(acc, c0, w, rows);
      }
    }
  }

  static void WeightedSumPerLane(const EdgeLaneArgs& g, int64_t begin,
                                 int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      const int lo = g.offsets[i], hi = g.offsets[i + 1];
      for (int l = 0; l < g.lanes; ++l) {
        float* out = g.out + i * g.ld_out + l * g.d;
        std::fill(out, out + g.d, 0.0f);
        for (int e = lo; e < hi; ++e) {
          const float a = g.alpha[e * g.ld_edge + l];
          const float* x = g.x_lane[l] + static_cast<int64_t>(g.src[e]) * g.d;
          for (int c = 0; c < g.d; ++c) out[c] += a * x[c];
        }
      }
    }
  }

  // ------------------------------------------------------------------
  // Backward, segment pass. Per edge, the coefficient gradient
  // ga[e] = <g_out[i], x[src[e]]> (from zero, c ascending); then the
  // softmax backward g_edge[e] = alpha[e] * (ga[e] - sum alpha * ga) times
  // the LeakyReLU branch, recomputed from the scores, which also adds into
  // g_s_dst[i] edge by edge. The vector path stores g_out row i
  // transposed for the source pass.
  // ------------------------------------------------------------------
  static void GradSegments(const EdgeLaneArgs& g, int64_t begin,
                           int64_t end) {
    if (g.lanes != kL) return GradSegmentsPerLane(g, begin, end);
    const V8 zero = V8::Zero();
    const V8 one = V8::Broadcast(1.0f);
    const V8 slope = V8::Broadcast(g.negative_slope);
    const int64_t ld_t = static_cast<int64_t>(g.d) * kL;
    const float* rows[kL];
    for (int64_t i = begin; i < end; ++i) {
      const int lo = g.offsets[i], hi = g.offsets[i + 1];
      if (lo == hi) continue;
      float* gt = g.g_out_t + i * ld_t;
      for (int l = 0; l < kL; ++l) rows[l] = g.g_out + i * g.ld_out + l * g.d;
      for (int c0 = 0; c0 < g.d; c0 += kL) {
        const int w = std::min(kL, g.d - c0);
        V8 cols[kL];
        LoadByColumn(rows, c0, w, cols);
        for (int c = 0; c < w; ++c) V8::Store(gt + (c0 + c) * kL, cols[c]);
      }
      for (int e = lo; e < hi; ++e) {
        const float* x = g.x + g.src[e] * g.ld_x;
        V8 acc = zero;
        for (int c = 0; c < g.d; ++c) {
          acc = V8::Add(acc,
                        V8::Mul(V8::Load(gt + c * kL), V8::Load(x + c * kL)));
        }
        V8::Store(g.g_edge + e * g.ld_edge, V8::Add(zero, acc));
      }
      V8 dot = zero;
      for (int e = lo; e < hi; ++e) {
        dot = V8::Add(dot, V8::Mul(V8::Load(g.alpha + e * g.ld_edge),
                                   V8::Load(g.g_edge + e * g.ld_edge)));
      }
      const V8 sd = V8::Load(g.s_dst + i * g.ld_score);
      V8 gsd = GatherLanes(g.g_s_dst, i);
      for (int e = lo; e < hi; ++e) {
        float* ge = g.g_edge + e * g.ld_edge;
        const V8 gs = V8::Mul(V8::Load(g.alpha + e * g.ld_edge),
                              V8::Sub(V8::Load(ge), dot));
        const V8 pre =
            V8::Add(sd, V8::Load(g.s_src + g.src[e] * g.ld_score));
        const V8 gd = V8::Mul(gs, V8::SelectGt(pre, zero, one, slope));
        V8::Store(ge, gd);
        gsd = V8::Add(gsd, gd);
      }
      ScatterLanes(gsd, i, g.g_s_dst);
    }
  }

  static void GradSegmentsPerLane(const EdgeLaneArgs& g, int64_t begin,
                                  int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      const int lo = g.offsets[i], hi = g.offsets[i + 1];
      if (lo == hi) continue;
      for (int l = 0; l < g.lanes; ++l) {
        const float* gout = g.g_out + i * g.ld_out + l * g.d;
        for (int e = lo; e < hi; ++e) {
          const float* x = g.x_lane[l] + static_cast<int64_t>(g.src[e]) * g.d;
          float acc = 0.0f;
          for (int c = 0; c < g.d; ++c) acc += gout[c] * x[c];
          g.g_edge[e * g.ld_edge + l] = 0.0f + acc;
        }
        float dot = 0.0f;
        for (int e = lo; e < hi; ++e) {
          dot += g.alpha[e * g.ld_edge + l] * g.g_edge[e * g.ld_edge + l];
        }
        const float sd = g.s_dst[i * g.ld_score + l];
        float& gsd = g.g_s_dst[l][i];
        for (int e = lo; e < hi; ++e) {
          float& ge = g.g_edge[e * g.ld_edge + l];
          const float gs = g.alpha[e * g.ld_edge + l] * (ge - dot);
          const float pre = sd + g.s_src[g.src[e] * g.ld_score + l];
          ge = gs * (pre > 0.0f ? 1.0f : g.negative_slope);
          gsd += ge;
        }
      }
    }
  }

  // Backward, source pass: for source row r, over its edges e ascending,
  // g_x[r] += alpha[e] * g_out[dst[e]] and g_s_src[r] += g_edge[e].
  static void GradSources(const EdgeLaneArgs& g, int64_t begin,
                          int64_t end) {
    if (g.lanes != kL) return GradSourcesPerLane(g, begin, end);
    const int64_t ld_t = static_cast<int64_t>(g.d) * kL;
    float* rows[kL];
    for (int64_t r = begin; r < end; ++r) {
      const int lo = g.src_offsets[r], hi = g.src_offsets[r + 1];
      if (lo == hi) continue;
      V8 gss = GatherLanes(g.g_s_src, r);
      for (int s = lo; s < hi; ++s) {
        gss = V8::Add(gss, V8::Load(g.g_edge + g.src_edges[s] * g.ld_edge));
      }
      ScatterLanes(gss, r, g.g_s_src);
      for (int l = 0; l < kL; ++l) rows[l] = g.g_x[l] + r * g.d;
      for (int c0 = 0; c0 < g.d; c0 += kL) {
        const int w = std::min(kL, g.d - c0);
        V8 acc[kL];
        LoadByColumn(rows, c0, w, acc);
        for (int s = lo; s < hi; ++s) {
          const int e = g.src_edges[s];
          const V8 a = V8::Load(g.alpha + e * g.ld_edge);
          const float* gt = g.g_out_t + g.dst[e] * ld_t + c0 * kL;
          for (int c = 0; c < w; ++c) {
            acc[c] = V8::Add(acc[c], V8::Mul(a, V8::Load(gt + c * kL)));
          }
        }
        StoreByColumn(acc, c0, w, rows);
      }
    }
  }

  static void GradSourcesPerLane(const EdgeLaneArgs& g, int64_t begin,
                                 int64_t end) {
    for (int64_t r = begin; r < end; ++r) {
      const int lo = g.src_offsets[r], hi = g.src_offsets[r + 1];
      for (int l = 0; l < g.lanes; ++l) {
        float& gss = g.g_s_src[l][r];
        float* gx = g.g_x[l] + r * g.d;
        for (int s = lo; s < hi; ++s) {
          const int e = g.src_edges[s];
          gss += g.g_edge[e * g.ld_edge + l];
          const float a = g.alpha[e * g.ld_edge + l];
          const float* gout = g.g_out + g.dst[e] * g.ld_out + l * g.d;
          for (int c = 0; c < g.d; ++c) gx[c] += a * gout[c];
        }
      }
    }
  }

  static void Fill(KernelDispatch* t) {
    t->edge_softmax_lanes = &EdgeLanes::Softmax;
    t->edge_weighted_sum_lanes = &EdgeLanes::WeightedSum;
    t->edge_grad_segments_lanes = &EdgeLanes::GradSegments;
    t->edge_grad_sources_lanes = &EdgeLanes::GradSources;
  }
};

}  // namespace uv::kern

#endif  // UV_TENSOR_KERNELS_EDGE_LANES_IMPL_H_
