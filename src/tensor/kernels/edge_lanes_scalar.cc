// Portable-backend instantiation of the edge attention lane kernels, in a
// TU of its own so it builds with -ffp-contract=off (see
// edge_lanes_impl.h).

#include "tensor/kernels/edge_lanes_impl.h"

namespace uv::kern {

template struct EdgeLanes<ScalarF32x8>;

void FillScalarEdgeLanes(KernelDispatch* table) {
  EdgeLanes<ScalarF32x8>::Fill(table);
}

}  // namespace uv::kern
