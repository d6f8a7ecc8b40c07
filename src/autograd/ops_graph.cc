#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "autograd/ops.h"
#include "obs/trace.h"
#include "tensor/forward_ops.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace uv::ag {
namespace {

// Rows (or edges) per parallel chunk in the backward scatters. Chunk
// boundaries depend only on these constants and the problem size, so
// outputs are identical for every UV_THREADS value; all chunk bodies below
// write disjoint rows.
// The forward halves live in tensor/forward_ops.cc with the same contract.
using uv::kSegmentGrain;
constexpr int64_t kRowGrain = 256;

using DestIndex = uv::SegmentDestIndex;

// Memo-cache of inverse scatter indices keyed on the identity of the
// shared index vector. The attention layers gather with the same index
// vectors every epoch (the graph context is built once per Train), so
// rebuilding the DestIndex on every op-node construction dominated
// steady-state heap traffic. Entries are validated against a weak_ptr to
// the owning vector: a later allocation recycled at the same address can
// never alias a stale entry.
std::shared_ptr<const DestIndex> CachedDestIndex(
    const std::shared_ptr<const std::vector<int>>& ids,
    int num_destinations) {
  struct Entry {
    std::weak_ptr<const std::vector<int>> owner;
    int num_destinations;
    std::shared_ptr<const DestIndex> index;
  };
  static std::mutex mu;
  static std::map<const void*, Entry>& cache =
      *new std::map<const void*, Entry>();  // Leaked: outlives all graphs.
  std::lock_guard<std::mutex> lock(mu);
  const auto it = cache.find(ids.get());
  if (it != cache.end() && it->second.num_destinations == num_destinations &&
      it->second.owner.lock() == ids) {
    return it->second.index;
  }
  // Short-lived index vectors (per-epoch cluster assignments) insert and
  // die every step; sweep their expired entries to bound the cache.
  if (cache.size() >= 64) {
    for (auto e = cache.begin(); e != cache.end();) {
      e = e->second.owner.expired() ? cache.erase(e) : std::next(e);
    }
  }
  auto index = std::make_shared<const DestIndex>(
      BuildSegmentDestIndex(*ids, num_destinations));
  cache[ids.get()] = Entry{ids, num_destinations, index};
  return index;
}

}  // namespace

VarPtr GatherRows(const VarPtr& x,
                  const std::shared_ptr<const std::vector<int>>& indices) {
  Tensor out = [&] {
    obs::SpanGuard span("gather_rows", obs::SpanLevel::kFine, "rows",
                        static_cast<int64_t>(indices->size()));
    return uv::GatherRows(x->value, *indices);
  }();
  VarPtr xv = x;
  // The backward scatter can hit the same source row from many gathered
  // rows; partition it by destination so workers never share a row. The
  // inverse index is memoized on the shared indices vector.
  std::shared_ptr<const DestIndex> dest =
      NeedsGrad(*xv) ? CachedDestIndex(indices, x->rows()) : nullptr;
  return MakeOp(
      std::move(out), {x},
      [xv, dest](Variable* self) {
        if (!xv->requires_grad) return;
        obs::SpanGuard span("scatter_add", obs::SpanLevel::kFine, "rows",
                            xv->rows());
        Tensor& gx = xv->EnsureGrad();
        const int cols = self->grad.cols();
        ParallelFor(0, gx.rows(), kRowGrain, [&](int64_t r0, int64_t r1) {
          for (int64_t r = r0; r < r1; ++r) {
            float* dst = gx.row(static_cast<int>(r));
            const int lo = dest->offsets[r];
            const int hi = dest->offsets[r + 1];
            for (int s = lo; s < hi; ++s) {
              const float* g = self->grad.row(dest->sources[s]);
              for (int c = 0; c < cols; ++c) dst[c] += g[c];
            }
          }
        });
      },
      "gather_rows");
}

VarPtr EdgeSoftmax(const VarPtr& s_dst, const VarPtr& s_src,
                   const std::shared_ptr<const std::vector<int>>& src_ids,
                   const std::shared_ptr<const std::vector<int>>& offsets,
                   float negative_slope) {
  const int num_segments = static_cast<int>(offsets->size()) - 1;
  Tensor out;
  obs::SpanGuard fwd_span("segment_softmax", obs::SpanLevel::kFine,
                          "segments", num_segments);
  uv::EdgeSoftmaxInto(s_dst->value, s_src->value, *src_ids, *offsets,
                      negative_slope, &out);

  VarPtr dv = s_dst, sv = s_src;
  std::shared_ptr<const DestIndex> by_src =
      NeedsGrad(*sv) ? CachedDestIndex(src_ids, s_src->rows()) : nullptr;
  return MakeOp(
      std::move(out), {s_dst, s_src},
      [dv, sv, src_ids, offsets, by_src, negative_slope](Variable* self) {
        const auto& off = *offsets;
        const int* src = src_ids->data();
        const int num_segments = static_cast<int>(off.size()) - 1;
        // Per-edge score gradient: the softmax backward times the LeakyReLU
        // branch, recomputed from the node scores instead of kept from the
        // forward. Same tiling argument as the forward: every element is
        // written. The destination half reduces inside the segment walk.
        Tensor ge = Tensor::Uninit(self->rows(), 1);
        const float* p = self->value.data();
        const float* g = self->grad.data();
        const float* sd = dv->value.data();
        const float* ss = sv->value.data();
        float* gd = ge.data();
        float* gsd = dv->requires_grad ? dv->EnsureGrad().data() : nullptr;
        ParallelFor(0, num_segments, kSegmentGrain,
                    [&](int64_t s0, int64_t s1) {
                      for (int64_t i = s0; i < s1; ++i) {
                        const int lo = off[i], hi = off[i + 1];
                        float dot = 0.0f;
                        for (int e = lo; e < hi; ++e) dot += p[e] * g[e];
                        for (int e = lo; e < hi; ++e) {
                          const float gs = p[e] * (g[e] - dot);
                          const float pre = sd[i] + ss[src[e]];
                          gd[e] = gs * (pre > 0.0f ? 1.0f : negative_slope);
                          if (gsd != nullptr) gsd[i] += gd[e];
                        }
                      }
                    });
        if (!sv->requires_grad) return;
        obs::SpanGuard span("scatter_add", obs::SpanLevel::kFine, "rows",
                            sv->rows());
        float* gss = sv->EnsureGrad().data();
        ParallelFor(0, sv->rows(), kRowGrain, [&](int64_t r0, int64_t r1) {
          for (int64_t r = r0; r < r1; ++r) {
            for (int s = by_src->offsets[r]; s < by_src->offsets[r + 1]; ++s) {
              gss[r] += gd[by_src->sources[s]];
            }
          }
        });
      },
      "edge_softmax");
}

VarPtr NeighborWeightedSum(
    const VarPtr& alpha, const VarPtr& x,
    const std::shared_ptr<const std::vector<int>>& src_ids,
    const std::shared_ptr<const std::vector<int>>& dst_ids,
    const std::shared_ptr<const std::vector<int>>& offsets) {
  const int num_segments = static_cast<int>(offsets->size()) - 1;
  UV_CHECK_EQ(dst_ids->size(), src_ids->size());
  Tensor out;
  obs::SpanGuard fwd_span("segment_weighted_sum", obs::SpanLevel::kFine,
                          "segments", num_segments);
  uv::NeighborWeightedSumInto(alpha->value, x->value, *src_ids, *offsets,
                              &out);

  VarPtr av = alpha, xv = x;
  std::shared_ptr<const DestIndex> by_src =
      NeedsGrad(*xv) ? CachedDestIndex(src_ids, x->rows()) : nullptr;
  return MakeOp(
      std::move(out), {alpha, x},
      [av, xv, src_ids, dst_ids, offsets, by_src](Variable* self) {
        const auto& off = *offsets;
        const int* dst = dst_ids->data();
        const int* src = src_ids->data();
        const int num_segments = self->rows();
        const int d = xv->cols();
        // dalpha[e] = <g[i], x[src(e)]> for the edges e of segment i, one
        // independent dot per edge.
        if (av->requires_grad) {
          float* ga = av->EnsureGrad().data();
          ParallelFor(0, num_segments, kSegmentGrain,
                      [&](int64_t s0, int64_t s1) {
                        for (int64_t i = s0; i < s1; ++i) {
                          const float* gout =
                              self->grad.row(static_cast<int>(i));
                          for (int e = off[i]; e < off[i + 1]; ++e) {
                            const float* f = xv->value.row(src[e]);
                            float acc = 0.0f;
                            for (int c = 0; c < d; ++c) acc += gout[c] * f[c];
                            ga[e] += acc;
                          }
                        }
                      });
        }
        // dx[r] = sum over edges e with src(e) == r, ascending, of
        // alpha[e] * g[dst(e)], partitioned by source row.
        if (!xv->requires_grad) return;
        obs::SpanGuard span("scatter_add", obs::SpanLevel::kFine, "rows",
                            xv->rows());
        for (size_t e = 0; e < dst_ids->size(); ++e) {
          UV_CHECK_GE(dst[e], 0);
          UV_CHECK_LT(dst[e], num_segments);
        }
        Tensor& gx = xv->EnsureGrad();
        const float* a = av->value.data();
        ParallelFor(0, gx.rows(), kRowGrain, [&](int64_t r0, int64_t r1) {
          for (int64_t r = r0; r < r1; ++r) {
            float* row = gx.row(static_cast<int>(r));
            for (int s = by_src->offsets[r]; s < by_src->offsets[r + 1]; ++s) {
              const int e = by_src->sources[s];
              const float w = a[e];
              const float* gout = self->grad.row(dst[e]);
              for (int c = 0; c < d; ++c) row[c] += w * gout[c];
            }
          }
        });
      },
      "neighbor_weighted_sum");
}

VarPtr SegmentSumByIds(const VarPtr& x,
                       const std::shared_ptr<const std::vector<int>>& seg_ids,
                       int num_segments) {
  UV_CHECK_EQ(static_cast<long long>(seg_ids->size()),
              static_cast<long long>(x->rows()));
  const auto& ids = *seg_ids;
  for (int r = 0; r < x->rows(); ++r) {
    if (ids[r] >= 0) UV_CHECK_LT(ids[r], num_segments);
  }
  // Forward is a scatter-sum keyed by ids; run it partitioned by
  // destination segment. Source rows are visited in ascending order per
  // segment, matching the serial scatter's accumulation order exactly.
  const auto dest = CachedDestIndex(seg_ids, num_segments);
  Tensor out;
  obs::SpanGuard fwd_span("segment_sum", obs::SpanLevel::kFine, "segments",
                          num_segments);
  uv::SegmentSumInto(x->value, *dest, &out);
  VarPtr xv = x;
  return MakeOp(
      std::move(out), {x},
      [xv, seg_ids](Variable* self) {
        if (!xv->requires_grad) return;
        obs::SpanGuard span("scatter_add", obs::SpanLevel::kFine, "rows",
                            xv->rows());
        Tensor& gx = xv->EnsureGrad();
        const auto& ids = *seg_ids;
        ParallelFor(0, gx.rows(), kRowGrain, [&](int64_t r0, int64_t r1) {
          for (int64_t r = r0; r < r1; ++r) {
            const int k = ids[r];
            if (k < 0) continue;
            const float* g = self->grad.row(k);
            float* dst = gx.row(static_cast<int>(r));
            for (int c = 0; c < gx.cols(); ++c) dst[c] += g[c];
          }
        });
      },
      "segment_sum_by_ids");
}

}  // namespace uv::ag
