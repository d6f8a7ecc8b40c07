// AVX2+FMA-backend instantiation of the generic kernel bodies. This TU
// alone is compiled with -mavx2 -mfma (see src/tensor/CMakeLists.txt), so
// the rest of the library stays portable and the dispatcher only jumps
// here after CPUID says the instructions exist.

#include "tensor/kernels/kernels_impl.h"

#if !defined(UV_SIMD_HAS_AVX2_TU)
#error "kernels_avx2.cc must be compiled with -mavx2 -mfma"
#endif

namespace uv::kern {

template struct Kernels<Avx2F32x8>;

void FillAvx2EdgeLanes(KernelDispatch* table);  // edge_lanes_avx2.cc

const KernelDispatch& GetAvx2Kernels() {
  static const KernelDispatch table = [] {
    KernelDispatch t = Kernels<Avx2F32x8>::Table("avx2");
    FillAvx2EdgeLanes(&t);
    return t;
  }();
  return table;
}

}  // namespace uv::kern
