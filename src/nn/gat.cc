#include "nn/gat.h"

#include "util/check.h"

namespace uv::nn {

AttentionHead::AttentionHead(int in_dst, int in_src, int out_dim,
                             bool share_transform, Rng* rng)
    : shared_(share_transform) {
  if (shared_) UV_CHECK_EQ(in_dst, in_src);
  {
    Tensor w(in_dst, out_dim);
    w.GlorotUniform(rng);
    w_dst_ = ag::MakeParam(std::move(w));
  }
  if (shared_) {
    w_src_ = w_dst_;
  } else {
    Tensor w(in_src, out_dim);
    w.GlorotUniform(rng);
    w_src_ = ag::MakeParam(std::move(w));
  }
  Tensor ad(out_dim, 1), as(out_dim, 1);
  ad.GlorotUniform(rng);
  as.GlorotUniform(rng);
  a_dst_ = ag::MakeParam(std::move(ad));
  a_src_ = ag::MakeParam(std::move(as));
}

void AttentionHead::AddLane(const ag::VarPtr& x_dst, const ag::VarPtr& x_src,
                            ag::AttentionHeads* lanes) const {
  ag::VarPtr h_dst = ag::MatMul(x_dst, w_dst_);
  ag::VarPtr h_src = shared_ && x_dst.get() == x_src.get()
                         ? h_dst
                         : ag::MatMul(x_src, w_src_);
  ag::VarPtr s_dst = ag::MatMul(h_dst, a_dst_);  // (N x 1)
  ag::VarPtr s_src = ag::MatMul(h_src, a_src_);  // (N x 1)
  lanes->Add(std::move(s_dst), std::move(s_src), std::move(h_src));
}

std::vector<ag::VarPtr> AttentionHead::Params() const {
  std::vector<ag::VarPtr> params = {w_dst_};
  if (!shared_) params.push_back(w_src_);
  params.push_back(a_dst_);
  params.push_back(a_src_);
  return params;
}

GatLayer::GatLayer(int in_dim, int out_dim, int num_heads, Rng* rng) {
  UV_CHECK_GT(num_heads, 0);
  UV_CHECK_EQ(out_dim % num_heads, 0);
  const int head_dim = out_dim / num_heads;
  heads_.reserve(num_heads);
  for (int h = 0; h < num_heads; ++h) {
    heads_.emplace_back(in_dim, in_dim, head_dim, /*share_transform=*/true,
                        rng);
  }
}

ag::VarPtr GatLayer::Forward(const ag::VarPtr& x,
                             const GraphContext& ctx) const {
  ag::AttentionHeads lanes;
  for (const auto& head : heads_) head.AddLane(x, x, &lanes);
  return ag::EdgeAttention(lanes, ctx.src_ids, ctx.dst_ids, ctx.offsets,
                           kAttentionSlope);
}

std::vector<ag::VarPtr> GatLayer::Params() const {
  std::vector<ag::VarPtr> params;
  for (const auto& head : heads_) {
    auto p = head.Params();
    params.insert(params.end(), p.begin(), p.end());
  }
  return params;
}

}  // namespace uv::nn
