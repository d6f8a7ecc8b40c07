#ifndef UV_TENSOR_KERNELS_KERNEL_DISPATCH_H_
#define UV_TENSOR_KERNELS_KERNEL_DISPATCH_H_

#include <cstdint>

namespace uv::kern {

// ---------------------------------------------------------------------------
// Runtime-dispatched vectorized kernel backend. Every hot loop in
// tensor_ops.cc (and the fused dense forward in the autograd layer) routes
// through one KernelDispatch table, resolved once at startup from CPUID
// and the UV_SIMD environment variable (auto | avx2 | scalar). The same
// seam is where any future BLAS/GPU backend plugs in: implement the table,
// add a Backend enumerator, and teach Resolve() to pick it.
//
// Determinism contract: for a FIXED backend, every kernel is bit-identical
// across UV_THREADS and UV_POOL values (chunk layouts depend only on the
// problem shape, and accumulation order per output element is fixed).
// Across backends results agree only to floating-point-reassociation
// tolerance: the AVX2 path fuses multiply-adds and accumulates GEMM dot
// products in eight parallel lanes, which legitimately reorders sums.
// ---------------------------------------------------------------------------

// Activations a GEMM epilogue can fuse. Sigmoid is applied with the same
// numerically-stable scalar formula in both backends (vectorizing exp
// would introduce a polynomial approximation, not just a reorder).
enum class Activation { kNone, kRelu, kLeakyRelu, kSigmoid };

// One GEMM problem: C += alpha * op(A) * op(B), all row-major, with an
// optional fused epilogue (bias row add + activation) applied to each
// output row panel after its k-accumulation completes. The beta term must
// already be folded into C by the caller.
struct GemmArgs {
  int m = 0;
  int n = 0;
  int k = 0;
  bool trans_a = false;
  bool trans_b = false;
  float alpha = 1.0f;
  const float* a = nullptr;  // (trans_a ? k x m : m x k)
  const float* b = nullptr;  // (trans_b ? n x k : k x n)
  float* c = nullptr;        // m x n
  const float* bias = nullptr;  // Optional 1 x n row added to every C row.
  Activation act = Activation::kNone;
  float leaky_slope = 0.0f;
};

// One image's convolution as an implicit GEMM: out = W * im2col(image) +
// bias, with the im2col operand read in place from a zero-padded copy of
// the image instead of being materialized. Tap t = (c, ky, kx) of output
// pixel p reads image[pixel_offsets[p] + tap_offsets[t]].
struct ConvArgs {
  int taps = 0;          // K = in_channels * kernel * kernel.
  int pixels = 0;        // out_h * out_w.
  int out_channels = 0;
  const float* image = nullptr;       // The zero-padded input planes.
  const int* tap_offsets = nullptr;   // taps entries, (c, ky, kx) order.
  // pixels rounded up to kConvTile entries; the padding entries
  // point anywhere inside `image` and their results are never stored.
  const int* pixel_offsets = nullptr;
  // (taps + 1) x round_up(out_channels, kConvTile): row t holds
  // tap t's weight for every output channel, the last row the bias, and
  // the padding columns are zero.
  const float* weights = nullptr;
  bool relu = false;
  float* out = nullptr;  // out_channels x pixels (CHW).
};

// One image's max pool without argmax, as uv::MaxPool2dImage defines it:
// channels x h x w (CHW) in, channels x oh x ow out.
struct PoolArgs {
  int channels = 0;
  int h = 0;
  int w = 0;
  int kernel = 0;
  int stride = 0;
  const float* image = nullptr;
  float* out = nullptr;
};

// The dispatch table. GEMM parallelizes internally (row panels over the
// global thread pool); the elementwise/reduction entries are serial over
// the range they are given — callers chunk them with ParallelFor so the
// parallel split stays in one place (tensor_ops.cc).
struct KernelDispatch {
  const char* name;  // "scalar" or "avx2"; lands in the perf-ledger env.

  // Packed GEMM with fused epilogue (see GemmArgs).
  void (*gemm)(const GemmArgs& args);
  // One image's convolution (see ConvArgs); serial, the caller owns the
  // per-image parallel split.
  void (*conv2d)(const ConvArgs& args);
  // One image's max pool (see PoolArgs); serial like conv2d.
  void (*max_pool)(const PoolArgs& args);

  // y[i] += alpha * x[i].
  void (*axpy)(float alpha, const float* x, float* y, int64_t n);
  // out[i] = a[i] * b[i].
  void (*mul)(const float* a, const float* b, float* out, int64_t n);
  // x[i] *= s.
  void (*scale)(float* x, float s, int64_t n);
  // rows[r][c] += v[c] for r in [0, num_rows).
  void (*add_row_vector)(const float* v, float* rows, int64_t num_rows,
                         int64_t cols);
  // max_i |a[i] - b[i]| (exact: max is order-independent).
  float (*max_abs_diff)(const float* a, const float* b, int64_t n);
  // Row-wise softmax(in * inv_temperature) for num_rows contiguous rows.
  void (*row_softmax)(const float* in, float* out, int64_t num_rows,
                      int64_t cols, float inv_temperature);
  // In-place per-row L2 normalization (near-zero rows left untouched).
  void (*row_l2_normalize)(float* rows, int64_t num_rows, int64_t cols);
  // In-place bias row add + activation over num_rows contiguous rows
  // (the standalone form of the GEMM epilogue).
  void (*bias_act_rows)(float* rows, const float* bias, int64_t num_rows,
                        int64_t cols, Activation act, float leaky_slope);
};

enum class Backend { kScalar = 0, kAvx2 = 1 };

// True when the backend is both compiled in and supported by this CPU.
// kScalar is always available.
bool BackendAvailable(Backend b);

// The active table, resolved on first use: UV_SIMD=scalar|avx2 forces a
// backend (avx2 falls back to scalar with a stderr note when unsupported);
// auto / unset picks the widest available.
const KernelDispatch& Active();
Backend ActiveBackend();
const char* ActiveName();

// Test/bench hook: swaps the active backend inside one process. CHECK-fails
// if the backend is unavailable; guard with BackendAvailable first.
void SetActiveBackend(Backend b);

// ---------------------------------------------------------------------------
// Shared blocking/threshold constants. The cutoffs only select serial vs
// parallel execution — never the per-element accumulation order — so
// results are bit-identical either way.
// ---------------------------------------------------------------------------
inline constexpr int64_t kGemmFlopThreshold = 1 << 16;
inline constexpr int64_t kElementwiseThreshold = 1 << 15;
inline constexpr int64_t kElementwiseGrain = 1 << 14;
// K-dimension cache block of the packed GEMM and the row grain its panel
// loop is parallelized with.
inline constexpr int kGemmKc = 256;
inline constexpr int kGemmRowGrain = 32;
// The convolution's register tile: kConvTile output pixels by one vector
// of kConvTile output channels.
inline constexpr int kConvTile = 8;

}  // namespace uv::kern

#endif  // UV_TENSOR_KERNELS_KERNEL_DISPATCH_H_
