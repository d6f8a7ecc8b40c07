// Portable-backend instantiation of the generic kernel bodies. Compiled
// with the project's baseline flags (no ISA extensions), so this TU is the
// fallback that must run anywhere the binary does.

#include "tensor/kernels/kernels_impl.h"

namespace uv::kern {

template struct Kernels<ScalarF32x8>;

void FillScalarEdgeLanes(KernelDispatch* table);  // edge_lanes_scalar.cc

const KernelDispatch& GetScalarKernels() {
  static const KernelDispatch table = [] {
    KernelDispatch t = Kernels<ScalarF32x8>::Table("scalar");
    FillScalarEdgeLanes(&t);
    return t;
  }();
  return table;
}

}  // namespace uv::kern
