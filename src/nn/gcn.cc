#include "nn/gcn.h"

#include "tensor/forward_ops.h"

namespace uv::nn {

ag::VarPtr GcnLayer::Forward(const ag::VarPtr& x,
                             const GraphContext& ctx) const {
  // Transform first (cheaper when out_dim <= in_dim), then aggregate.
  return ag::NeighborWeightedSum(ctx.gcn_norm, lin_.Forward(x), ctx.src_ids,
                                 ctx.dst_ids, ctx.offsets);
}

Tensor GcnLayer::ForwardRaw(const Tensor& x, const GraphContext& ctx) const {
  const Tensor h = lin_.ForwardRaw(x);
  Tensor out;
  NeighborWeightedSumInto(ctx.gcn_norm->value, h, *ctx.src_ids, *ctx.offsets,
                          &out);
  return out;
}

}  // namespace uv::nn
