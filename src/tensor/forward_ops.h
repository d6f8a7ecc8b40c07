#ifndef UV_TENSOR_FORWARD_OPS_H_
#define UV_TENSOR_FORWARD_OPS_H_

// Raw forward-only kernels shared by the autograd ops (src/autograd) and
// their grad-free callers: the inference engine (src/infer) and the tile
// encoder (src/features). Bit-identical results depend on every caller
// evaluating the exact same scalar formulas in the exact same accumulation
// order, so this header is the single source of truth: the autograd ops
// call these for their forward values and keep only the backward logic
// local. Every parallel loop here chunks by a fixed grain,
// never by thread count, so results are identical for every UV_THREADS.

#include <cstdint>
#include <vector>

#include "tensor/kernels/kernel_dispatch.h"
#include "tensor/tensor.h"

namespace uv {

// Segments (CSR rows) per parallel chunk in the segment kernels below.
inline constexpr int64_t kSegmentGrain = 64;

// Scalar activation formulas. The sigmoid is kern::StableSigmoid.
inline float ReluScalar(float x) { return x > 0.0f ? x : 0.0f; }
inline float LeakyReluScalar(float x, float negative_slope) {
  return x > 0.0f ? x : negative_slope * x;
}

void ReluInPlace(Tensor* t);
void LeakyReluInPlace(float negative_slope, Tensor* t);
void SigmoidInPlace(Tensor* t);

// Convolution geometry over CHW image rows: a square `kernel` applied at
// `stride`, with `pad` zeros around every spatial border.
struct Conv2dSpec {
  int in_channels = 0;
  int in_h = 0;
  int in_w = 0;
  int out_channels = 0;
  int kernel = 0;
  int stride = 1;
  int pad = 0;

  int out_h() const { return (in_h + 2 * pad - kernel) / stride + 1; }
  int out_w() const { return (in_w + 2 * pad - kernel) / stride + 1; }
  bool operator==(const Conv2dSpec&) const = default;
};

// Images per parallel chunk in every per-image convolution and pooling
// loop (the autograd ops and the tile encoder). Chunks depend only on this
// constant and the batch size, never on the thread count. ag::Conv2d
// reduces its weight and bias gradients from per-chunk partials in chunk
// order, so their bytes depend on it.
inline constexpr int64_t kConvImageGrain = 4;

// Unpacks one CHW image into its im2col matrix, (in_c*k*k) x (oh*ow), which
// the caller sizes: row (c, ky, kx) holds the pixel under that kernel tap
// for every output position, 0 in the padding. The bounds test is hoisted
// out of the pixel loop: each output row's in-range span is one copy
// between zero-filled margins. Only ag::Conv2d's backward pass uses it;
// the forward never builds the matrix.
void Im2Col(const float* image, const Conv2dSpec& spec, Tensor* col);

// w (out_c x in_c*k*k) and the channel bias b (1 x out_c) in the layout
// Conv2dForwardImage reads (kern::ConvArgs::weights). Pack once per
// forward call: the weights of a trained layer change between calls.
void PackConv2dWeights(const Tensor& w, const Tensor& b, Tensor* packed);

// Per-thread scratch of Conv2dForwardImage; steady-state calls with one
// geometry allocate nothing.
struct Conv2dWorkspace {
  Conv2dSpec spec;                 // The geometry the offsets are for.
  Tensor padded;                   // The image inside a zero border.
  std::vector<int> tap_offsets;    // Of tap (c, ky, kx) in `padded`.
  std::vector<int> pixel_offsets;  // Of each output's window origin.
};

// One image's convolution: writes out_c*oh*ow floats (CHW) of
// w * im2col(image) plus the channel bias, then ReLU when `relu`, from
// `packed` (PackConv2dWeights). One implicit-GEMM kernel serves every
// kernel size, stride and padding; its outputs equal
// Gemm(false, false, 1, w, im2col(image), 0, &prod) + bias bit for bit.
void Conv2dForwardImage(const float* image, const Conv2dSpec& spec,
                        const Tensor& packed, bool relu, Conv2dWorkspace* ws,
                        float* out);

// One image's max pool: channels x h x w (CHW) in, channels x oh x ow out
// with oh = (h - kernel) / stride + 1 (likewise ow). A window keeps its
// first maximum in row-major order. `argmax` may be null: then the
// dispatched kernel pools eight outputs per vector with the same bytes.
// Otherwise argmax[o] receives the flat input index that output o took its
// value from, which is all the backward pass needs.
void MaxPool2dImage(const float* image, int channels, int h, int w,
                    int kernel, int stride, float* out, int* argmax);

// Fused message passing over a destination-grouped edge list. `offsets` is
// a CSR row pointer of size num_segments + 1: edge e with offsets[i] <= e <
// offsets[i+1] points into node i and reads source row src_ids[e]. The
// kernel reads per-node rows in place, so no E x d per-edge copy is ever
// built, and aborts on a source id outside the source rows. (Graph
// attention runs its softmax and weighted sum together, all heads in one
// pass, through the kernel table's edge lane entries.)
//
// out[i] = sum over edges e of segment i, ascending, of
// alpha[e] * x.row(src_ids[e]). Resizes `out` to num_segments x x.cols()
// and zero-fills it first, so the accumulation order matches the
// zero-initialized serial walk.
void NeighborWeightedSumInto(const Tensor& alpha, const Tensor& x,
                             const std::vector<int>& src_ids,
                             const std::vector<int>& offsets, Tensor* out);

// Inverse of a scatter map: for each destination row, the ascending list
// of source rows that write to it. Lets scatter-sums run partitioned by
// destination (race-free) while keeping the per-destination accumulation
// order identical to the serial ascending-source walk. Negative ids are
// dropped (unassigned rows); an id >= num_destinations aborts.
struct SegmentDestIndex {
  std::vector<int> offsets;  // num_destinations + 1
  std::vector<int> sources;  // ascending within each destination
};

SegmentDestIndex BuildSegmentDestIndex(const std::vector<int>& dest_of_source,
                                       int num_destinations);

// out[k] = sum of x rows whose destination is k (ascending source order).
// Resizes `out` to dest.num_destinations x x.cols() and zero-fills it.
void SegmentSumInto(const Tensor& x, const SegmentDestIndex& dest,
                    Tensor* out);

// Row/column broadcast products (forward halves of ag::MulColBroadcast and
// ag::MulRowVector). `scale` is rows x 1; `v` is 1 x cols.
void MulColBroadcastInPlace(const Tensor& scale, Tensor* x);
void MulRowVectorInPlace(const Tensor& v, Tensor* x);

// The slave classifier of the contextual master-slave gate (paper eq.
// 20-22): a 2-layer ReLU MLP whose parameters are gated per row by a
// filter F_i = sigmoid(context_i W_f + b_f) in (0,1)^P. Filter layout per
// row: [w1 (d_in*d_hidden) | b1 (d_hidden) | w2 (d_hidden) | b2 (1)].
int GatedMlpFilterSize(int d_in, int d_hidden);

// Rows per filter tile. A tile is exactly one K block of the packed GEMM,
// so the W_f gradient, accumulated one tile at a time (ctx_rows^T * dz),
// adds the same partial sums in the same order as one whole-matrix
// product would. No N x P filter is ever held.
inline constexpr int kGatedMlpTileRows = kern::kGemmKc;

// Workspaces for one filter tile; a caller that scores repeatedly keeps
// one so the slabs are reused.
struct GatedMlpTile {
  Tensor context;  // Tile rows of the context (rows x context_dim).
  Tensor filter;   // Their filter rows (rows x P).
};

// tile->filter = sigmoid(tile->context * w_f + b_f), through the GEMM's
// fused bias/sigmoid epilogue; row r depends only on context row r.
void GatedMlpFilterTile(const Tensor& w_f, const Tensor& b_f,
                        GatedMlpTile* tile);

// Logits (n x 1) into `out` and the hidden activations (n x d_hidden, what
// the backward pass reads) into `hidden` for x (n x d_in) and context
// (n x c), deriving the filter kGatedMlpTileRows rows at a time. With
// `rows`, only those rows are computed, in that order, and every other row
// of `out` and `hidden` is zero; a row's values do not depend on which
// rows share its tile.
void GatedMlpForward(const Tensor& x, const Tensor& context,
                     const Tensor& w_f, const Tensor& b_f, const Tensor& w1,
                     const Tensor& b1, const Tensor& w2, const Tensor& b2,
                     GatedMlpTile* tile, Tensor* out, Tensor* hidden,
                     const std::vector<int>* rows = nullptr);

}  // namespace uv

#endif  // UV_TENSOR_FORWARD_OPS_H_
