#ifndef UV_NN_GCN_H_
#define UV_NN_GCN_H_

#include <vector>

#include "nn/graph_context.h"
#include "nn/linear.h"

namespace uv::nn {

// Graph convolution layer (Kipf & Welling): out = D^-1/2 A D^-1/2 X W + b,
// computed over the destination-grouped edge structure with precomputed
// symmetric normalization (GraphContext::gcn_norm). The activation is left
// to the caller.
class GcnLayer {
 public:
  GcnLayer(int in_dim, int out_dim, Rng* rng) : lin_(in_dim, out_dim, rng) {}

  ag::VarPtr Forward(const ag::VarPtr& x, const GraphContext& ctx) const;

  std::vector<ag::VarPtr> Params() const { return lin_.Params(); }

 private:
  Linear lin_;
};

}  // namespace uv::nn

#endif  // UV_NN_GCN_H_
