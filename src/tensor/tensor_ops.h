#ifndef UV_TENSOR_TENSOR_OPS_H_
#define UV_TENSOR_TENSOR_OPS_H_

#include <vector>

#include "tensor/kernels/kernel_dispatch.h"
#include "tensor/tensor.h"

namespace uv {

// BLAS-lite kernels and elementwise helpers on Tensor. These are the raw
// (non-differentiable) building blocks; the autograd layer composes them.
// Every hot loop routes through the kern::KernelDispatch backend resolved
// at startup (UV_SIMD=auto|avx2|scalar).

// C = alpha * op(A) * op(B) + beta * C. Shapes must already agree.
void Gemm(bool transpose_a, bool transpose_b, float alpha, const Tensor& a,
          const Tensor& b, float beta, Tensor* c);

// Gemm with a fused epilogue: after the matrix product, adds the optional
// 1 x n bias row to every output row and applies the activation inside the
// still-hot output tile (one memory pass instead of three). bias may be
// null; act = kNone with a bias gives a plain fused bias add.
void GemmBiasAct(bool transpose_a, bool transpose_b, float alpha,
                 const Tensor& a, const Tensor& b, float beta, Tensor* c,
                 const Tensor* bias, kern::Activation act,
                 float leaky_slope = 0.0f);

// out = A * B (allocates the result).
Tensor MatMul(const Tensor& a, const Tensor& b);

// y += alpha * x (same shape).
void Axpy(float alpha, const Tensor& x, Tensor* y);

// Elementwise out-of-place operations (same shapes).
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Scale(const Tensor& a, float s);

// Adds a 1 x cols row vector to every row of a.
void AddRowVectorInPlace(const Tensor& row_vec, Tensor* a);

// Transposed copy.
Tensor Transpose(const Tensor& a);

// Writes a's transpose into out, which must already be a.cols() x a.rows().
// Lets callers reuse a persistent workspace instead of allocating.
void TransposeInto(const Tensor& a, Tensor* out);

// Row-wise softmax with temperature: out[r] = softmax(a[r] / temperature).
Tensor RowSoftmax(const Tensor& a, float temperature);

// Row-wise argmax indices.
std::vector<int> RowArgmax(const Tensor& a);

// Per-row L2 normalization (rows with near-zero norm are left as zeros).
Tensor RowL2Normalize(const Tensor& a);

// Column-wise statistics; each result is 1 x cols.
Tensor ColumnMean(const Tensor& a);
Tensor ColumnStd(const Tensor& a, const Tensor& mean);

// Standardizes columns to zero mean / unit variance (eps-guarded) in place.
void StandardizeColumnsInPlace(Tensor* a);

// Horizontal concatenation [a | b].
Tensor ConcatCols(const Tensor& a, const Tensor& b);

// Column slice copy, [col_begin, col_end).
Tensor SliceCols(const Tensor& a, int col_begin, int col_end);

// Row gather: out[i] = a[indices[i]].
Tensor GatherRows(const Tensor& a, const std::vector<int>& indices);

// The same gather into a reused tensor: *out is resized to n x a.cols()
// (ResizeUninit keeps its slab when the size class fits, so a workspace
// gathers without pool traffic at steady state). Every id must index a row
// of `a`.
void GatherRowsInto(const Tensor& a, const int* ids, int n, Tensor* out);

// Max absolute elementwise difference between two same-shaped tensors.
float MaxAbsDiff(const Tensor& a, const Tensor& b);

}  // namespace uv

#endif  // UV_TENSOR_TENSOR_OPS_H_
