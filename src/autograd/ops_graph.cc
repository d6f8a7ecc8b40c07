#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "autograd/graph_arena.h"
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

void AttentionHeads::Add(VarPtr dst_scores, VarPtr src_scores,
                         VarPtr src_rows) {
  UV_CHECK_LT(count, kMaxHeads);
  s_dst[count] = std::move(dst_scores);
  s_src[count] = std::move(src_scores);
  x_src[count] = std::move(src_rows);
  ++count;
}

namespace {

// An op with more inputs than one VarList holds lists them through "group"
// nodes: no value and no backward, only inputs, kept even when none needs
// a gradient so the op's backward can still read every value. The inputs
// stay in order, so Backward's depth-first walk meets them as if they
// were listed flat.
constexpr int kFanout = static_cast<int>(VarList::kCapacity);

// Inputs under each group of n refs: the smallest power of kFanout that
// fits n into kFanout groups.
int GroupSpan(int n) {
  int span = 1;
  while (span * kFanout < n) span *= kFanout;
  return span;
}

void ListGrouped(const VarPtr* refs, int n, VarList* list) {
  if (n <= kFanout) {
    for (int i = 0; i < n; ++i) list->push_back(refs[i]);
    return;
  }
  const int span = GroupSpan(n);
  for (int i = 0; i < n; i += span) {
    VarList inputs;
    ListGrouped(refs + i, std::min(span, n - i), &inputs);
    bool needs_grad = false;
    for (const VarPtr& in : inputs) needs_grad = needs_grad || NeedsGrad(*in);
    auto group = std::allocate_shared<Variable>(GraphArena<Variable>{},
                                                Tensor(), needs_grad);
    group->inputs = std::move(inputs);
    group->op_name = "group";
    list->push_back(std::move(group));
  }
}

// Writes the n refs that ListGrouped listed into `list` to out[0, n).
void UnlistGrouped(const VarList& list, int n, Variable** out) {
  if (n <= kFanout) {
    for (int i = 0; i < n; ++i) out[i] = list[i].get();
    return;
  }
  const int span = GroupSpan(n);
  for (int i = 0, g = 0; i < n; i += span, ++g) {
    UnlistGrouped(list[g]->inputs, std::min(span, n - i), out + i);
  }
}

// The layouts the lane kernels read (kern::EdgeLaneArgs): scores one row
// per node with head j in column j, and the source rows of heads
// [0, h_vec), whole groups of kEdgeLanes, interleaved head-minor. A last
// group of fewer lanes reads its heads' rows in place.
void PackScores(Variable* const* cols, int stride, int h, Tensor* out) {
  const int rows = cols[0]->rows();
  out->ResizeUninit(rows, h);
  for (int j = 0; j < h; ++j) {
    const float* v = cols[j * stride]->value.data();
    float* o = out->data() + j;
    for (int r = 0; r < rows; ++r) o[static_cast<int64_t>(r) * h] = v[r];
  }
}

void PackSourceRows(Variable* const* x, int h_vec, Tensor* out) {
  constexpr int kL = kern::kEdgeLanes;
  const int rows = x[0]->rows(), d = x[0]->cols();
  out->ResizeUninit(rows, h_vec * d);
  ParallelFor(0, rows, kRowGrain, [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      for (int g0 = 0; g0 < h_vec; g0 += kL) {
        float* o = out->row(static_cast<int>(r)) + g0 * d;
        for (int l = 0; l < kL; ++l) {
          const float* v = x[g0 + l]->value.row(static_cast<int>(r));
          for (int c = 0; c < d; ++c) o[c * kL + l] = v[c];
        }
      }
    }
  });
}

// Every head's inputs in the kernels' layouts, and each lane group's view
// of them. `refs` lists (s_dst, s_src) per head, then every head's source
// rows. The caller points `all`'s alpha, output and gradient pointers at
// tensors that cover every head, then takes each group's view.
struct LaneInputs {
  static constexpr int kMaxGroups =
      (AttentionHeads::kMaxHeads + kern::kEdgeLanes - 1) / kern::kEdgeLanes;
  const int h;
  const int h_vec;                // Heads in whole vector groups.
  Variable* const* const x_refs;  // Each head's source rows.
  Tensor s_dst, s_src, x;
  kern::EdgeLaneArgs all;

  LaneInputs(Variable* const* refs, int heads, float negative_slope,
             const std::vector<int>& offsets, const std::vector<int>& src_ids)
      : h(heads),
        h_vec(heads / kern::kEdgeLanes * kern::kEdgeLanes),
        x_refs(refs + 2 * heads) {
    const int d = x_refs[0]->cols();
    PackScores(refs, 2, h, &s_dst);
    PackScores(refs + 1, 2, h, &s_src);
    if (h_vec > 0) PackSourceRows(x_refs, h_vec, &x);
    all.d = d;
    all.negative_slope = negative_slope;
    all.offsets = offsets.data();
    all.src = src_ids.data();
    all.s_dst = s_dst.data();
    all.s_src = s_src.data();
    all.ld_score = h;
    all.x = x.data();
    all.ld_x = static_cast<int64_t>(h_vec) * d;
    all.ld_edge = h;
    all.ld_out = static_cast<int64_t>(h) * d;
  }

  int num_groups() const {
    return (h + kern::kEdgeLanes - 1) / kern::kEdgeLanes;
  }

  // Lane group g's view of `all`; g_out_t covers heads [0, h_vec) with one
  // segments x (kEdgeLanes * d) block per group.
  kern::EdgeLaneArgs Group(int g, int num_segments) const {
    const int g0 = g * kern::kEdgeLanes;
    const int64_t d = all.d;
    kern::EdgeLaneArgs a = all;
    a.lanes = std::min(kern::kEdgeLanes, h - g0);
    a.s_dst = all.s_dst + g0;
    a.s_src = all.s_src + g0;
    a.alpha = all.alpha + g0;
    if (all.out != nullptr) a.out = all.out + g0 * d;
    if (all.g_out != nullptr) a.g_out = all.g_out + g0 * d;
    if (all.g_edge != nullptr) a.g_edge = all.g_edge + g0;
    if (a.lanes == kern::kEdgeLanes) {
      a.x = all.x + g0 * d;
      if (all.g_out_t != nullptr) {
        a.g_out_t = all.g_out_t + static_cast<int64_t>(num_segments) * g0 * d;
      }
    } else {
      a.x = nullptr;
      a.g_out_t = nullptr;
      for (int l = 0; l < a.lanes; ++l) {
        a.x_lane[l] = x_refs[g0 + l]->value.data();
      }
    }
    return a;
  }
};

}  // namespace

VarPtr EdgeAttention(const AttentionHeads& heads,
                     const std::shared_ptr<const std::vector<int>>& src_ids,
                     const std::shared_ptr<const std::vector<int>>& dst_ids,
                     const std::shared_ptr<const std::vector<int>>& offsets,
                     float negative_slope) {
  const int h = heads.count;
  UV_CHECK_GT(h, 0);
  const int num_segments = static_cast<int>(offsets->size()) - 1;
  const int num_edges = static_cast<int>(src_ids->size());
  UV_CHECK_EQ(dst_ids->size(), src_ids->size());
  // Segments must tile [0, E) exactly: every edge row of alpha is written.
  UV_CHECK_EQ(offsets->front(), 0);
  UV_CHECK_EQ(offsets->back(), num_edges);
  const int src_rows = heads.x_src[0]->rows();
  const int d = heads.x_src[0]->cols();
  for (int j = 0; j < h; ++j) {
    UV_CHECK_EQ(heads.s_dst[j]->rows(), num_segments);
    UV_CHECK_EQ(heads.s_dst[j]->cols(), 1);
    UV_CHECK_EQ(heads.s_src[j]->rows(), src_rows);
    UV_CHECK_EQ(heads.s_src[j]->cols(), 1);
    UV_CHECK_EQ(heads.x_src[j]->rows(), src_rows);
    UV_CHECK_EQ(heads.x_src[j]->cols(), d);
    for (int k = 0; k < j; ++k) {
      UV_CHECK(heads.s_dst[k] != heads.s_dst[j]);
      UV_CHECK(heads.s_src[k] != heads.s_src[j]);
      UV_CHECK(heads.x_src[k] != heads.x_src[j]);
    }
  }
  const int* src = src_ids->data();
  for (int e = 0; e < num_edges; ++e) {
    UV_CHECK_GE(src[e], 0);
    UV_CHECK_LT(src[e], src_rows);
  }

  // Refs in visiting order: (s_dst, s_src) per head, then every x_src.
  Variable* refs[3 * AttentionHeads::kMaxHeads];
  for (int j = 0; j < h; ++j) {
    refs[2 * j] = heads.s_dst[j].get();
    refs[2 * j + 1] = heads.s_src[j].get();
    refs[2 * h + j] = heads.x_src[j].get();
  }
  const kern::KernelDispatch& kt = kern::Active();
  Tensor alpha = Tensor::Uninit(num_edges, h);
  Tensor out = Tensor::Uninit(num_segments, h * d);
  {
    LaneInputs in(refs, h, negative_slope, *offsets, *src_ids);
    in.all.alpha = alpha.data();
    in.all.out = out.data();
    kern::EdgeLaneArgs groups[LaneInputs::kMaxGroups];
    const int num_groups = in.num_groups();
    for (int g = 0; g < num_groups; ++g) groups[g] = in.Group(g, num_segments);
    {
      obs::SpanGuard span("segment_softmax", obs::SpanLevel::kFine,
                          "segments", num_segments);
      ParallelFor(0, num_segments, kSegmentGrain, [&](int64_t s0, int64_t s1) {
        for (int g = 0; g < num_groups; ++g) {
          kt.edge_softmax_lanes(groups[g], s0, s1);
        }
      });
    }
    obs::SpanGuard span("segment_weighted_sum", obs::SpanLevel::kFine,
                        "segments", num_segments);
    ParallelFor(0, num_segments, kSegmentGrain, [&](int64_t s0, int64_t s1) {
      for (int g = 0; g < num_groups; ++g) {
        kt.edge_weighted_sum_lanes(groups[g], s0, s1);
      }
    });
  }

  bool needs_grad = false;
  for (int i = 0; i < 3 * h; ++i) needs_grad = needs_grad || NeedsGrad(*refs[i]);
  if (!needs_grad) return MakeOp(std::move(out), {}, {}, "edge_attention");
  VarList inputs;
  {
    VarPtr listed[3 * AttentionHeads::kMaxHeads];
    for (int j = 0; j < h; ++j) {
      listed[2 * j] = heads.s_dst[j];
      listed[2 * j + 1] = heads.s_src[j];
      listed[2 * h + j] = heads.x_src[j];
    }
    ListGrouped(listed, 3 * h, &inputs);
  }
  std::shared_ptr<const DestIndex> by_src = CachedDestIndex(src_ids, src_rows);
  return MakeOp(
      std::move(out), std::move(inputs),
      [alpha = std::move(alpha), offsets, src_ids, dst_ids, by_src, h, d,
       num_segments, negative_slope](Variable* self) mutable {
        Variable* refs[3 * AttentionHeads::kMaxHeads];
        UnlistGrouped(self->inputs, 3 * h, refs);
        const int src_rows = refs[2 * h]->rows();
        const int* dst = dst_ids->data();
        for (size_t e = 0; e < dst_ids->size(); ++e) {
          UV_CHECK_GE(dst[e], 0);
          UV_CHECK_LT(dst[e], num_segments);
        }
        // Gradients of inputs that need none go to scratch rows that
        // nothing reads.
        Tensor scratch_dst, scratch_src, scratch_x;
        auto grad_of = [](Variable* v, Tensor* scratch) {
          if (v->requires_grad) return v->EnsureGrad().data();
          if (scratch->empty()) *scratch = Tensor(v->rows(), v->cols());
          return scratch->data();
        };
        LaneInputs in(refs, h, negative_slope, *offsets, *src_ids);
        Tensor g_out_t;
        if (in.h_vec > 0) g_out_t = Tensor::Uninit(num_segments, in.h_vec * d);
        Tensor g_edge = Tensor::Uninit(static_cast<int>(alpha.rows()), h);
        in.all.dst = dst;
        in.all.src_offsets = by_src->offsets.data();
        in.all.src_edges = by_src->sources.data();
        in.all.alpha = alpha.data();
        in.all.g_out = self->grad.data();
        in.all.g_out_t = g_out_t.data();
        in.all.g_edge = g_edge.data();
        kern::EdgeLaneArgs groups[LaneInputs::kMaxGroups];
        const int num_groups = in.num_groups();
        for (int g = 0; g < num_groups; ++g) {
          kern::EdgeLaneArgs& a = groups[g];
          a = in.Group(g, num_segments);
          const int g0 = g * kern::kEdgeLanes;
          for (int l = 0; l < a.lanes; ++l) {
            a.g_s_dst[l] = grad_of(refs[2 * (g0 + l)], &scratch_dst);
            a.g_s_src[l] = grad_of(refs[2 * (g0 + l) + 1], &scratch_src);
            a.g_x[l] = grad_of(refs[2 * h + g0 + l], &scratch_x);
          }
        }
        const kern::KernelDispatch& kt = kern::Active();
        ParallelFor(0, num_segments, kSegmentGrain,
                    [&](int64_t s0, int64_t s1) {
                      for (int g = 0; g < num_groups; ++g) {
                        kt.edge_grad_segments_lanes(groups[g], s0, s1);
                      }
                    });
        obs::SpanGuard span("scatter_add", obs::SpanLevel::kFine, "rows",
                            src_rows);
        ParallelFor(0, src_rows, kRowGrain, [&](int64_t r0, int64_t r1) {
          for (int g = 0; g < num_groups; ++g) {
            kt.edge_grad_sources_lanes(groups[g], r0, r1);
          }
        });
      },
      "edge_attention");
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
