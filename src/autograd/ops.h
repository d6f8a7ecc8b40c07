#ifndef UV_AUTOGRAD_OPS_H_
#define UV_AUTOGRAD_OPS_H_

#include <memory>
#include <vector>

#include "autograd/variable.h"
#include "tensor/forward_ops.h"
#include "tensor/kernels/kernel_dispatch.h"

namespace uv::ag {

// ---------------------------------------------------------------------------
// Dense ops (ops_dense.cc)
// ---------------------------------------------------------------------------

// C = A * B.
VarPtr MatMul(const VarPtr& a, const VarPtr& b);

// Fused dense layer: act(x * w + b) in one kernel pass — the bias row and
// activation run inside the GEMM output tiles (kern::GemmBiasAct) instead
// of as separate full-matrix ops. b is (1 x out_dim). leaky_slope is only
// read for kLeakyRelu and must be > 0 (the backward recovers the
// activation derivative from the output's sign).
VarPtr DenseBiasAct(const VarPtr& x, const VarPtr& w, const VarPtr& b,
                    kern::Activation act, float leaky_slope = 0.0f);

// Elementwise (same shape).
VarPtr Add(const VarPtr& a, const VarPtr& b);
VarPtr Sub(const VarPtr& a, const VarPtr& b);
VarPtr Mul(const VarPtr& a, const VarPtr& b);

// out = s * a.
VarPtr ScalarMul(const VarPtr& a, float s);

// Adds a (1 x d) bias row to every row of x (N x d).
VarPtr AddRowBroadcast(const VarPtr& x, const VarPtr& bias);

// Scales row r of x (N x d) by scale(r, 0) where scale is (N x 1).
VarPtr MulColBroadcast(const VarPtr& x, const VarPtr& scale);

// Elementwise product of every row of x (N x d) with a row vector (1 x d).
VarPtr MulRowVector(const VarPtr& x, const VarPtr& v);

// Matrix transpose.
VarPtr Transpose(const VarPtr& a);

// Horizontal concatenation [a | b].
VarPtr ConcatCols(const VarPtr& a, const VarPtr& b);

// Vertical concatenation [a ; b] (same column count).
VarPtr ConcatRows(const VarPtr& a, const VarPtr& b);

// Column slice [col_begin, col_end).
VarPtr SliceCols(const VarPtr& a, int col_begin, int col_end);

// Row-wise softmax(x / temperature).
VarPtr RowSoftmax(const VarPtr& a, float temperature);

// Activations.
VarPtr Relu(const VarPtr& a);
VarPtr LeakyRelu(const VarPtr& a, float negative_slope);
VarPtr Sigmoid(const VarPtr& a);
VarPtr Tanh(const VarPtr& a);

// Reductions to a 1x1 scalar node.
VarPtr SumAll(const VarPtr& a);
VarPtr MeanAll(const VarPtr& a);

// ---------------------------------------------------------------------------
// Graph message-passing ops (ops_graph.cc)
//
// Edges are stored grouped by destination: `offsets` has size N+1 and edge e
// with offsets[i] <= e < offsets[i+1] points *into* node i. This matches the
// CSR layout produced by uv::graph::CsrGraph.
// ---------------------------------------------------------------------------

// out[e] = x[indices[e]] (row gather); backward scatter-adds.
VarPtr GatherRows(const VarPtr& x,
                  const std::shared_ptr<const std::vector<int>>& indices);

// The two message-passing ops below read per-node rows through the edge
// index arrays and never build an E x d per-edge tensor. Edge e with
// offsets[i] <= e < offsets[i+1] belongs to destination segment i.

// The per-head inputs of EdgeAttention, head h in lane h: score columns
// s_dst[h] (N x 1) and s_src[h] (rows x 1), and source rows x_src[h]
// (rows x d). Fixed storage, so building it allocates nothing.
struct AttentionHeads {
  static constexpr int kMaxHeads = 64;
  int count = 0;
  VarPtr s_dst[kMaxHeads];
  VarPtr s_src[kMaxHeads];
  VarPtr x_src[kMaxHeads];

  void Add(VarPtr dst_scores, VarPtr src_scores, VarPtr src_rows);
};

// Graph attention of every head in one pass over the edges, with head h in
// vector lane h (kern::EdgeLaneArgs; more than kern::kEdgeLanes heads run
// in groups of that many). Per head: alpha(e) is the softmax over segment
// i of LeakyReLU(s_dst[i] + s_src[src_ids[e]], negative_slope), and output
// row i is the sum over its edges, ascending, of alpha(e) *
// x_src[src_ids[e]]. Returns N x (heads * d), head h in columns
// [h * d, (h + 1) * d), which is the head-by-head ConcatCols layout.
//
// Values and gradients are bit-identical to running each head alone. The
// backward adds into every head's x_src, s_src and s_dst, in that order,
// before any op that produced them runs its own backward. Inputs are
// visited in lane order, (s_dst, s_src) per head, then x_src, so the ops
// behind them run their backward in the order they would for separate
// heads that each listed (s_dst, s_src, x_src). Needs dst_ids[e] == i, as
// GraphContext and the k-hop sampler lay it out; each head's three inputs
// must be distinct from the other heads' inputs of the same role.
VarPtr EdgeAttention(const AttentionHeads& heads,
                     const std::shared_ptr<const std::vector<int>>& src_ids,
                     const std::shared_ptr<const std::vector<int>>& dst_ids,
                     const std::shared_ptr<const std::vector<int>>& offsets,
                     float negative_slope);

// out[i] = sum over edges e of segment i of alpha(e) * x[src_ids[e]];
// alpha is (E x 1), x is (rows x d), result is (N x d) with
// N = offsets->size()-1. Backward: dalpha(e) = <g[i], x[src(e)]> and
// dx[r] = sum over edges with src(e) == r of alpha(e) * g[dst(e)], which
// needs dst_ids[e] == i, as GraphContext and the k-hop sampler lay it out.
VarPtr NeighborWeightedSum(
    const VarPtr& alpha, const VarPtr& x,
    const std::shared_ptr<const std::vector<int>>& src_ids,
    const std::shared_ptr<const std::vector<int>>& dst_ids,
    const std::shared_ptr<const std::vector<int>>& offsets);

// out[k] = sum of rows r of x with seg_ids[r] == k; rows with seg id -1 are
// dropped. Result is (num_segments x d). Used for the binarized
// regions->clusters collection (paper eq. 10).
VarPtr SegmentSumByIds(const VarPtr& x,
                       const std::shared_ptr<const std::vector<int>>& seg_ids,
                       int num_segments);

// ---------------------------------------------------------------------------
// Convolution ops (ops_conv.cc). Images are stored one per row, flattened in
// CHW order; shapes are passed explicitly.
// ---------------------------------------------------------------------------

// x: (N x in_c*in_h*in_w), w: (out_c x in_c*k*k), b: (1 x out_c).
// Result: (N x out_c*out_h*out_w).
VarPtr Conv2d(const VarPtr& x, const VarPtr& w, const VarPtr& b,
              const Conv2dSpec& spec);

// 2x2/stride max pooling over (channels x h x w) rows.
VarPtr MaxPool2d(const VarPtr& x, int channels, int h, int w, int kernel,
                 int stride);

// Per-channel global average pooling: (N x c*h*w) -> (N x c).
VarPtr GlobalAvgPool(const VarPtr& x, int channels, int h, int w);

// ---------------------------------------------------------------------------
// Losses (ops_loss.cc)
// ---------------------------------------------------------------------------

// Mean binary cross entropy with logits over rows. labels is a constant
// (N x 1) of {0,1}; optional per-sample weights (N x 1, pass nullptr for
// uniform). Numerically stable log-sum-exp formulation.
VarPtr BceWithLogits(const VarPtr& logits, const Tensor& labels,
                     const Tensor* sample_weights);

// PU rank loss (paper eq. 18): sum over (i in positive, j in unlabeled) of
// (1 - (s_i - s_j))^2 on scores (K x 1), normalized by the pair count.
VarPtr PuRankLoss(const VarPtr& scores, const std::vector<int>& positive,
                  const std::vector<int>& unlabeled);

}  // namespace uv::ag

#endif  // UV_AUTOGRAD_OPS_H_
