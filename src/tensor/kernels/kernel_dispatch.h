#ifndef UV_TENSOR_KERNELS_KERNEL_DISPATCH_H_
#define UV_TENSOR_KERNELS_KERNEL_DISPATCH_H_

#include <cmath>
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

// The two scalar sigmoids. Every sigmoid in the library is one of these,
// so any two paths that must agree bit for bit (autograd and the engine,
// the two backends) evaluate the same expression.
//
// Numerically stable two-branch form: exp is never evaluated on a positive
// argument. It is the sigmoid activation (ag::Sigmoid, the GEMM epilogue,
// BCE's gradient).
inline float StableSigmoid(float x) {
  if (x >= 0.0f) return 1.0f / (1.0f + std::exp(-x));
  const float e = std::exp(x);
  return e / (1.0f + e);
}
// One-branch form 1 / (1 + exp(-z)): every detector's final probability
// from its logits. It differs from StableSigmoid in the last bits for
// large |z|, so the two are not interchangeable.
inline float PlainSigmoid(float z) { return 1.0f / (1.0f + std::exp(-z)); }

// Activations a GEMM epilogue can fuse. Sigmoid is StableSigmoid, scalar
// in both backends (vectorizing exp would introduce a polynomial
// approximation, not just a reorder).
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

// Graph attention of up to kEdgeLanes heads over one destination-grouped
// edge list, head l in vector lane l. Edge e with offsets[i] <= e < offsets[i+1]
// points into segment i and reads source row src[e]. Per lane, every pass
// does the per-head scalar arithmetic of a segment softmax of
// LeakyReLU(s_dst[i] + s_src[src[e]]) followed by the alpha-weighted sum of
// source rows, with each multiply and add rounded separately: the kernels
// are built without floating-point contraction on every backend.
// Layouts: scores lane l of row r at s_dst[r * ld_score + l] (s_src
// likewise); alpha and the per-edge score gradient lane l of edge e at
// [e * ld_edge + l]; outputs and their gradients head-major, column c of
// lane l at out[i * ld_out + l * d + c]. Source rows: with kEdgeLanes
// lanes they are interleaved head-minor, column c of lane l at
// x[r * ld_x + c * kEdgeLanes + l], and the backward keeps the output
// gradient transposed the same way in g_out_t (row stride
// d * kEdgeLanes); with fewer lanes each lane reads its own rows in place,
// x_lane[l] + r * d.
inline constexpr int kEdgeLanes = 8;  // Lanes of the vector path.
struct EdgeLaneArgs {
  int lanes = 0;  // 1..kEdgeLanes; fewer than kEdgeLanes run lane by lane.
  int d = 0;      // Columns per head.
  float negative_slope = 0.0f;
  const int* offsets = nullptr;      // Segment row pointer.
  const int* src = nullptr;          // Source row of each edge.
  const int* dst = nullptr;          // Segment of each edge.
  const int* src_offsets = nullptr;  // Edges by source row: row pointer
  const int* src_edges = nullptr;    // and ascending edge ids.
  const float* s_dst = nullptr;
  const float* s_src = nullptr;
  int64_t ld_score = 0;
  const float* x = nullptr;  // Interleaved source rows (kEdgeLanes lanes).
  int64_t ld_x = 0;
  const float* x_lane[kEdgeLanes] = {};  // Each lane's rows (fewer lanes).
  float* alpha = nullptr;  // Written by the softmax pass, read after it.
  int64_t ld_edge = 0;
  float* out = nullptr;         // Forward output.
  const float* g_out = nullptr;  // Its gradient (backward).
  int64_t ld_out = 0;
  float* g_out_t = nullptr;  // Transposed g_out (kEdgeLanes lanes).
  float* g_edge = nullptr;   // Per-edge score gradient.
  // Per-lane gradient accumulators (backward), each added into in place:
  // s_dst's and s_src's (one float per row) and x's (d floats per row).
  float* g_s_dst[kEdgeLanes] = {};
  float* g_s_src[kEdgeLanes] = {};
  float* g_x[kEdgeLanes] = {};
};

// The dispatch table. GEMM parallelizes internally (row panels over the
// global thread pool); the elementwise/reduction entries are serial over
// the range they are given — callers chunk them with ParallelFor so the
// parallel split stays in one place (tensor_ops.cc).
struct KernelDispatch {
  const char* name;  // "scalar" or "avx2"; lands in the perf-ledger env.

  // Packed GEMM with fused epilogue (see GemmArgs).
  void (*gemm)(const GemmArgs& args);
  // The same product for n == 1, with 8 rows of C in the lanes of one
  // vector and A read in place. Every element gets the packed kernel's
  // arithmetic (alpha-scaled A, one Fma chain from zero per kGemmKc block
  // over p ascending, one add into C per block, then the epilogue), so
  // the results equal gemm's bit for bit on each backend.
  void (*gemv)(const GemmArgs& args);
  // Graph attention with heads in lanes (see EdgeLaneArgs). Each is serial
  // over [begin, end); the caller owns the parallel split. Forward: the
  // softmax pass writes alpha for segments [begin, end), the weighted-sum
  // pass their output rows. Backward: the segment pass adds into g_s_dst
  // and writes g_edge (and g_out_t) for segments [begin, end); the source
  // pass then adds into g_x and g_s_src for source rows [begin, end), over
  // their edges in ascending order.
  void (*edge_softmax_lanes)(const EdgeLaneArgs& args, int64_t begin,
                             int64_t end);
  void (*edge_weighted_sum_lanes)(const EdgeLaneArgs& args, int64_t begin,
                                  int64_t end);
  void (*edge_grad_segments_lanes)(const EdgeLaneArgs& args, int64_t begin,
                                   int64_t end);
  void (*edge_grad_sources_lanes)(const EdgeLaneArgs& args, int64_t begin,
                                  int64_t end);
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
