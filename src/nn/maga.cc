#include "nn/maga.h"

#include "util/check.h"

namespace uv::nn {

ag::VarPtr AggregatePair(AggKind agg, const ag::VarPtr& u, const ag::VarPtr& v,
                         const ag::VarPtr& attention_query) {
  switch (agg) {
    case AggKind::kSum:
      return ag::Add(u, v);
    case AggKind::kConcat:
      return ag::ConcatCols(u, v);
    case AggKind::kAttention: {
      UV_CHECK(attention_query != nullptr);
      // Two-way softmax over per-row scores against the shared query.
      ag::VarPtr e_u = ag::LeakyRelu(ag::MatMul(u, attention_query), 0.2f);
      ag::VarPtr e_v = ag::LeakyRelu(ag::MatMul(v, attention_query), 0.2f);
      ag::VarPtr weights = ag::RowSoftmax(ag::ConcatCols(e_u, e_v), 1.0f);
      ag::VarPtr w_u = ag::SliceCols(weights, 0, 1);
      ag::VarPtr w_v = ag::SliceCols(weights, 1, 2);
      return ag::Add(ag::MulColBroadcast(u, w_u), ag::MulColBroadcast(v, w_v));
    }
  }
  UV_CHECK(false);
  return u;
}

MagaLayer::MagaLayer(int in_p, int in_i, int out_dim, int num_heads,
                     AggKind agg, Rng* rng)
    : agg_(agg), out_dim_(out_dim) {
  UV_CHECK_GT(num_heads, 0);
  UV_CHECK_EQ(out_dim % num_heads, 0);
  const int head_dim = out_dim / num_heads;
  for (int h = 0; h < num_heads; ++h) {
    intra_p_.emplace_back(in_p, in_p, head_dim, /*share_transform=*/true, rng);
    intra_i_.emplace_back(in_i, in_i, head_dim, /*share_transform=*/true, rng);
    inter_pi_.emplace_back(in_p, in_i, head_dim, /*share_transform=*/false,
                           rng);
    inter_ip_.emplace_back(in_i, in_p, head_dim, /*share_transform=*/false,
                           rng);
  }
  if (agg_ == AggKind::kAttention) {
    Tensor qp(out_dim, 1), qi(out_dim, 1);
    qp.GlorotUniform(rng);
    qi.GlorotUniform(rng);
    agg_query_p_ = ag::MakeParam(std::move(qp));
    agg_query_i_ = ag::MakeParam(std::move(qi));
  }
}

int MagaLayer::out_width() const {
  return agg_ == AggKind::kConcat ? 2 * out_dim_ : out_dim_;
}

MagaLayer::Output MagaLayer::Forward(const ag::VarPtr& x_p,
                                     const ag::VarPtr& x_i,
                                     const GraphContext& ctx) const {
  // All four banks' heads in one edge pass. The banks go in AGG order
  // (out.p's intra and inter context, then out.i's) and each head lists
  // its (s_dst, s_src) pair, so every shared projection and input row
  // receives its gradients in the order separate per-head ops gave them.
  ag::AttentionHeads lanes;
  for (const auto& head : intra_p_) head.AddLane(x_p, x_p, &lanes);
  for (const auto& head : inter_pi_) head.AddLane(x_p, x_i, &lanes);
  for (const auto& head : intra_i_) head.AddLane(x_i, x_i, &lanes);
  for (const auto& head : inter_ip_) head.AddLane(x_i, x_p, &lanes);
  ag::VarPtr heads = ag::EdgeAttention(lanes, ctx.src_ids, ctx.dst_ids,
                                       ctx.offsets, kAttentionSlope);
  // Intra-modal contexts (eq. 2, 4) and inter-modal contexts (eq. 6), with
  // the paper's sigma instantiated as ReLU.
  auto bank = [&](int b) {
    return ag::Relu(ag::SliceCols(heads, b * out_dim_, (b + 1) * out_dim_));
  };
  ag::VarPtr p_from_p = bank(0);
  ag::VarPtr p_from_i = bank(1);
  ag::VarPtr i_from_i = bank(2);
  ag::VarPtr i_from_p = bank(3);

  Output out;
  out.p = AggregatePair(agg_, p_from_p, p_from_i, agg_query_p_);
  out.i = AggregatePair(agg_, i_from_i, i_from_p, agg_query_i_);
  return out;
}

std::vector<ag::VarPtr> MagaLayer::Params() const {
  std::vector<ag::VarPtr> params;
  auto absorb = [&params](const std::vector<AttentionHead>& heads) {
    for (const auto& head : heads) {
      auto p = head.Params();
      params.insert(params.end(), p.begin(), p.end());
    }
  };
  absorb(intra_p_);
  absorb(intra_i_);
  absorb(inter_pi_);
  absorb(inter_ip_);
  if (agg_ == AggKind::kAttention) {
    params.push_back(agg_query_p_);
    params.push_back(agg_query_i_);
  }
  return params;
}

}  // namespace uv::nn
