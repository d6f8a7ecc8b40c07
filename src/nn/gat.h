#ifndef UV_NN_GAT_H_
#define UV_NN_GAT_H_

#include <vector>

#include "nn/graph_context.h"
#include "nn/linear.h"

namespace uv::nn {

// One graph-attention head generalized to a (destination, source) feature
// pair, which is exactly the shape of the paper's MAGA attention
// (eq. 1-7): scores come from a^T [W_d x_i ⊕ W_s x_j] with LeakyReLU,
// softmax over each destination's in-edges, and the aggregated message is
// the transformed *source* features. With x_d == x_s and a shared W this is
// a vanilla GAT head.
class AttentionHead {
 public:
  // If `share_transform` is set, in_dst must equal in_src and a single W is
  // used for both sides (the paper's intra-modal case).
  AttentionHead(int in_dst, int in_src, int out_dim, bool share_transform,
                Rng* rng);

  // Adds this head to `lanes` as its next lane: the projected source rows
  // h_src = x_src W_src and the score halves (h_dst a_dst, h_src a_src)
  // with h_dst = x_dst W_dst. ag::EdgeAttention over the lanes then gives
  // each head's aggregated messages (N x out_dim), pre-activation.
  void AddLane(const ag::VarPtr& x_dst, const ag::VarPtr& x_src,
               ag::AttentionHeads* lanes) const;

  std::vector<ag::VarPtr> Params() const;

 private:
  bool shared_;
  ag::VarPtr w_dst_;
  ag::VarPtr w_src_;   // Same object as w_dst_ when shared_.
  ag::VarPtr a_dst_;   // (out_dim x 1) attention vector, destination half.
  ag::VarPtr a_src_;   // (out_dim x 1) attention vector, source half.
};

// LeakyReLU slope of every attention score.
inline constexpr float kAttentionSlope = 0.2f;

// Multi-head GAT layer (heads concatenated), used by the GAT baseline and
// by the CMSF-M ablation variant. All heads run in one ag::EdgeAttention.
class GatLayer {
 public:
  GatLayer(int in_dim, int out_dim, int num_heads, Rng* rng);

  // Returns (N x out_dim); out_dim must be divisible by num_heads.
  ag::VarPtr Forward(const ag::VarPtr& x, const GraphContext& ctx) const;

  std::vector<ag::VarPtr> Params() const;

 private:
  std::vector<AttentionHead> heads_;
};

}  // namespace uv::nn

#endif  // UV_NN_GAT_H_
