#include "nn/gcn.h"

namespace uv::nn {

ag::VarPtr GcnLayer::Forward(const ag::VarPtr& x,
                             const GraphContext& ctx) const {
  // Transform first (cheaper when out_dim <= in_dim), then aggregate.
  return ag::NeighborWeightedSum(ctx.gcn_norm, lin_.Forward(x), ctx.src_ids,
                                 ctx.dst_ids, ctx.offsets);
}

}  // namespace uv::nn
