// AVX2-backend instantiation of the edge attention lane kernels. Built with
// -mavx2 -mfma like kernels_avx2.cc, plus -ffp-contract=off so that no
// multiply and add are fused (see edge_lanes_impl.h).

#include "tensor/kernels/edge_lanes_impl.h"

#if !defined(UV_SIMD_HAS_AVX2_TU)
#error "edge_lanes_avx2.cc must be compiled with -mavx2 -mfma"
#endif

namespace uv::kern {

template struct EdgeLanes<Avx2F32x8>;

void FillAvx2EdgeLanes(KernelDispatch* table) {
  EdgeLanes<Avx2F32x8>::Fill(table);
}

}  // namespace uv::kern
