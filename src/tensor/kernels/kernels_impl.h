#ifndef UV_TENSOR_KERNELS_KERNELS_IMPL_H_
#define UV_TENSOR_KERNELS_KERNELS_IMPL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "tensor/kernels/kernel_dispatch.h"
#include "tensor/kernels/simd.h"
#include "tensor/tensor.h"
#include "util/thread_pool.h"

namespace uv::kern {

// ---------------------------------------------------------------------------
// Generic kernel bodies, templated over the 8-lane vector type from simd.h.
// Each backend TU (kernels_scalar.cc, kernels_avx2.cc) explicitly
// instantiates Kernels<ItsVectorType>, so both backends compile from ONE
// set of loop bodies: different template arguments produce different
// symbols, there is no ODR hazard, and a semantic fix lands in both
// backends at once.
//
// Per-element vector-lane vs scalar-tail assignment depends only on the
// span a kernel is handed. tensor_ops.cc chunks elementwise spans with a
// grain that is a multiple of V8::kLanes, so an element's treatment is a
// function of the problem size alone — never of UV_THREADS — which is what
// keeps the per-backend bit-identity contract intact.
// ---------------------------------------------------------------------------

template <class V8>
struct Kernels {
  static constexpr int kL = V8::kLanes;

  // GEMM register blocking: each microkernel invocation produces an
  // MR x NR tile of C out of MR broadcast lanes of packed A against two
  // V8 columns of packed B, keeping 12 accumulators + 2 B vectors + 1 A
  // broadcast in flight (15 of 16 ymm registers on AVX2).
  static constexpr int kMr = 6;
  static constexpr int kNr = 2 * kL;

  // ------------------------------------------------------------------
  // Elementwise / reduction kernels. All serial over [0, n): the caller
  // owns the parallel split.
  // ------------------------------------------------------------------

  static void Axpy(float alpha, const float* x, float* y, int64_t n) {
    const V8 va = V8::Broadcast(alpha);
    int64_t i = 0;
    for (; i + kL <= n; i += kL) {
      V8::Store(y + i, V8::Fma(va, V8::Load(x + i), V8::Load(y + i)));
    }
    for (; i < n; ++i) y[i] += alpha * x[i];
  }

  static void Mul(const float* a, const float* b, float* out, int64_t n) {
    int64_t i = 0;
    for (; i + kL <= n; i += kL) {
      V8::Store(out + i, V8::Mul(V8::Load(a + i), V8::Load(b + i)));
    }
    for (; i < n; ++i) out[i] = a[i] * b[i];
  }

  static void Scale(float* x, float s, int64_t n) {
    const V8 vs = V8::Broadcast(s);
    int64_t i = 0;
    for (; i + kL <= n; i += kL) {
      V8::Store(x + i, V8::Mul(V8::Load(x + i), vs));
    }
    for (; i < n; ++i) x[i] *= s;
  }

  static void AddRowVector(const float* v, float* rows, int64_t num_rows,
                           int64_t cols) {
    for (int64_t r = 0; r < num_rows; ++r) {
      float* row = rows + r * cols;
      int64_t c = 0;
      for (; c + kL <= cols; c += kL) {
        V8::Store(row + c, V8::Add(V8::Load(row + c), V8::Load(v + c)));
      }
      for (; c < cols; ++c) row[c] += v[c];
    }
  }

  static float MaxAbsDiff(const float* a, const float* b, int64_t n) {
    // |x| = max(x, -x); max is exact and order-free, so this reduction is
    // bit-identical across backends and chunkings.
    V8 acc = V8::Zero();
    int64_t i = 0;
    for (; i + kL <= n; i += kL) {
      const V8 va = V8::Load(a + i);
      const V8 vb = V8::Load(b + i);
      acc = V8::Max(acc, V8::Max(V8::Sub(va, vb), V8::Sub(vb, va)));
    }
    float m = V8::ReduceMax(acc);
    for (; i < n; ++i) m = std::max(m, std::fabs(a[i] - b[i]));
    return m;
  }

  static void RowSoftmax(const float* in, float* out, int64_t num_rows,
                         int64_t cols, float inv_temperature) {
    const V8 vinv = V8::Broadcast(inv_temperature);
    for (int64_t r = 0; r < num_rows; ++r) {
      const float* x = in + r * cols;
      float* o = out + r * cols;
      // Max pass over the temperature-scaled values (mul + max are exact,
      // so the vectorization cannot change the result).
      V8 vmx = V8::Broadcast(-1e30f);
      int64_t c = 0;
      for (; c + kL <= cols; c += kL) {
        vmx = V8::Max(vmx, V8::Mul(V8::Load(x + c), vinv));
      }
      float mx = V8::ReduceMax(vmx);
      for (; c < cols; ++c) mx = std::max(mx, x[c] * inv_temperature);
      // exp + sum stay scalar/sequential: a vectorized exp would be a
      // polynomial approximation, not a reorder, and the rows here are
      // K=20-ish cluster columns — the win is hoisting 1/temperature and
      // parallelizing rows, not vectorizing exp.
      double total = 0.0;
      for (c = 0; c < cols; ++c) {
        const float e = std::exp(x[c] * inv_temperature - mx);
        o[c] = e;
        total += e;
      }
      const float inv = total > 0.0 ? static_cast<float>(1.0 / total) : 0.0f;
      const V8 vinv_total = V8::Broadcast(inv);
      for (c = 0; c + kL <= cols; c += kL) {
        V8::Store(o + c, V8::Mul(V8::Load(o + c), vinv_total));
      }
      for (; c < cols; ++c) o[c] *= inv;
    }
  }

  static void RowL2Normalize(float* rows, int64_t num_rows, int64_t cols) {
    for (int64_t r = 0; r < num_rows; ++r) {
      float* row = rows + r * cols;
      V8 acc = V8::Zero();
      int64_t c = 0;
      for (; c + kL <= cols; c += kL) {
        const V8 v = V8::Load(row + c);
        acc = V8::Fma(v, v, acc);
      }
      float sumsq = V8::ReduceSum(acc);
      for (; c < cols; ++c) sumsq += row[c] * row[c];
      const double norm = std::sqrt(static_cast<double>(sumsq));
      if (norm < 1e-12) continue;
      const float inv = static_cast<float>(1.0 / norm);
      const V8 vinv = V8::Broadcast(inv);
      for (c = 0; c + kL <= cols; c += kL) {
        V8::Store(row + c, V8::Mul(V8::Load(row + c), vinv));
      }
      for (; c < cols; ++c) row[c] *= inv;
    }
  }

  static void BiasActRows(float* rows, const float* bias, int64_t num_rows,
                          int64_t cols, Activation act, float leaky_slope) {
    if (act == Activation::kSigmoid) {
      // Scalar in both backends so the two dispatch tables agree
      // bit-for-bit on this epilogue.
      for (int64_t r = 0; r < num_rows; ++r) {
        float* row = rows + r * cols;
        for (int64_t c = 0; c < cols; ++c) {
          row[c] = StableSigmoid(bias != nullptr ? row[c] + bias[c] : row[c]);
        }
      }
      return;
    }
    const V8 zero = V8::Zero();
    const V8 vslope = V8::Broadcast(leaky_slope);
    for (int64_t r = 0; r < num_rows; ++r) {
      float* row = rows + r * cols;
      int64_t c = 0;
      for (; c + kL <= cols; c += kL) {
        V8 x = V8::Load(row + c);
        if (bias != nullptr) x = V8::Add(x, V8::Load(bias + c));
        switch (act) {
          case Activation::kNone:
            break;
          case Activation::kRelu:
            x = V8::Max(x, zero);
            break;
          case Activation::kLeakyRelu: {
            // max(x,0) + slope*min(x,0); min(x,0) = -max(-x,0).
            const V8 neg = V8::Sub(zero, x);
            x = V8::Fma(vslope, V8::Sub(zero, V8::Max(neg, zero)),
                        V8::Max(x, zero));
            break;
          }
          case Activation::kSigmoid:
            break;  // Handled above.
        }
        V8::Store(row + c, x);
      }
      for (; c < cols; ++c) {
        float x = bias != nullptr ? row[c] + bias[c] : row[c];
        switch (act) {
          case Activation::kNone:
            break;
          case Activation::kRelu:
            x = x > 0.0f ? x : 0.0f;
            break;
          case Activation::kLeakyRelu:
            x = (x > 0.0f ? x : 0.0f) +
                leaky_slope * (x < 0.0f ? x : 0.0f);
            break;
          case Activation::kSigmoid:
            break;
        }
        row[c] = x;
      }
    }
  }

  // ------------------------------------------------------------------
  // Packed GEMM. C += alpha * op(A) * op(B), then the optional fused
  // bias/activation epilogue per row panel. BLIS-style blocking: the K
  // dimension is tiled at kGemmKc; B is packed once per call into
  // zero-padded kNr column panels (the packing absorbs trans_b, so the
  // microkernel only ever sees the contiguous layout); row panels of C
  // are distributed over the thread pool, and each chunk packs its own
  // alpha-scaled A panels into a thread-local workspace (trans_a is
  // likewise absorbed by the pack).
  //
  // Accumulation order per C element: p ascending inside a kc block in
  // fixed vector lanes, kc blocks ascending, one add into C per block —
  // independent of the chunk layout, hence bit-identical across
  // UV_THREADS/UV_POOL for a fixed backend.
  // ------------------------------------------------------------------

  static void PackB(const GemmArgs& g, int pc, int pe, float* bp) {
    const int n = g.n;
    const int kc_len = pe - pc;
    const int np = (n + kNr - 1) / kNr;
    for (int jp = 0; jp < np; ++jp) {
      const int j0 = jp * kNr;
      const int jw = std::min(kNr, n - j0);
      float* panel = bp + static_cast<int64_t>(jp) * kc_len * kNr;
      if (!g.trans_b) {
        // B is k x n: copy kNr-wide slivers of kc_len consecutive rows.
        for (int p = 0; p < kc_len; ++p) {
          const float* src =
              g.b + static_cast<int64_t>(pc + p) * n + j0;
          float* dst = panel + static_cast<int64_t>(p) * kNr;
          int j = 0;
          for (; j < jw; ++j) dst[j] = src[j];
          for (; j < kNr; ++j) dst[j] = 0.0f;
        }
      } else {
        // B is n x k: column j of op(B) is row j0+j of B — contiguous in
        // p, strided kNr in the panel.
        for (int j = 0; j < jw; ++j) {
          const float* src =
              g.b + static_cast<int64_t>(j0 + j) * g.k + pc;
          for (int p = 0; p < kc_len; ++p) {
            panel[static_cast<int64_t>(p) * kNr + j] = src[p];
          }
        }
        for (int j = jw; j < kNr; ++j) {
          for (int p = 0; p < kc_len; ++p) {
            panel[static_cast<int64_t>(p) * kNr + j] = 0.0f;
          }
        }
      }
    }
  }

  // Packs rows [i0, i1) of op(A), k-slice [pc, pe), as kMr-row panels
  // with alpha folded in (matching the pre-existing kernel's
  // "alpha * a" accumulation order).
  static void PackA(const GemmArgs& g, int i0, int i1, int pc, int pe,
                    float* ap) {
    const int kc_len = pe - pc;
    const int rows = i1 - i0;
    const int mp = (rows + kMr - 1) / kMr;
    for (int ip = 0; ip < mp; ++ip) {
      const int r0 = i0 + ip * kMr;
      const int rw = std::min(kMr, i1 - r0);
      float* panel = ap + static_cast<int64_t>(ip) * kc_len * kMr;
      if (!g.trans_a) {
        // A is m x k: panel element (p, i) = alpha * A(r0+i, pc+p).
        for (int i = 0; i < rw; ++i) {
          const float* src =
              g.a + static_cast<int64_t>(r0 + i) * g.k + pc;
          for (int p = 0; p < kc_len; ++p) {
            panel[static_cast<int64_t>(p) * kMr + i] = g.alpha * src[p];
          }
        }
      } else {
        // A is k x m: op(A)(i, p) = A(p, i) — the pack IS the transpose,
        // so no separate materialized-transpose pass is needed.
        for (int p = 0; p < kc_len; ++p) {
          const float* src = g.a + static_cast<int64_t>(pc + p) * g.m + r0;
          float* dst = panel + static_cast<int64_t>(p) * kMr;
          for (int i = 0; i < rw; ++i) dst[i] = g.alpha * src[i];
        }
      }
      if (rw < kMr) {
        for (int p = 0; p < kc_len; ++p) {
          float* dst = panel + static_cast<int64_t>(p) * kMr;
          for (int i = rw; i < kMr; ++i) dst[i] = 0.0f;
        }
      }
    }
  }

  // One kMr x kNr tile: C[0:rows, 0:cols] += packed-A panel * packed-B
  // panel. 12 live accumulators; edge tiles spill through a stack buffer
  // (the accumulated values are identical either way).
  static void Micro(int kc_len, const float* ap, const float* bp, float* c,
                    int64_t ldc, int rows, int cols) {
    V8 acc00 = V8::Zero(), acc01 = V8::Zero();
    V8 acc10 = V8::Zero(), acc11 = V8::Zero();
    V8 acc20 = V8::Zero(), acc21 = V8::Zero();
    V8 acc30 = V8::Zero(), acc31 = V8::Zero();
    V8 acc40 = V8::Zero(), acc41 = V8::Zero();
    V8 acc50 = V8::Zero(), acc51 = V8::Zero();
    for (int p = 0; p < kc_len; ++p) {
      const V8 b0 = V8::Load(bp + static_cast<int64_t>(p) * kNr);
      const V8 b1 = V8::Load(bp + static_cast<int64_t>(p) * kNr + kL);
      const float* arow = ap + static_cast<int64_t>(p) * kMr;
      V8 a0 = V8::Broadcast(arow[0]);
      acc00 = V8::Fma(a0, b0, acc00);
      acc01 = V8::Fma(a0, b1, acc01);
      a0 = V8::Broadcast(arow[1]);
      acc10 = V8::Fma(a0, b0, acc10);
      acc11 = V8::Fma(a0, b1, acc11);
      a0 = V8::Broadcast(arow[2]);
      acc20 = V8::Fma(a0, b0, acc20);
      acc21 = V8::Fma(a0, b1, acc21);
      a0 = V8::Broadcast(arow[3]);
      acc30 = V8::Fma(a0, b0, acc30);
      acc31 = V8::Fma(a0, b1, acc31);
      a0 = V8::Broadcast(arow[4]);
      acc40 = V8::Fma(a0, b0, acc40);
      acc41 = V8::Fma(a0, b1, acc41);
      a0 = V8::Broadcast(arow[5]);
      acc50 = V8::Fma(a0, b0, acc50);
      acc51 = V8::Fma(a0, b1, acc51);
    }
    if (rows == kMr && cols == kNr) {
      float* c0 = c;
      V8::Store(c0, V8::Add(V8::Load(c0), acc00));
      V8::Store(c0 + kL, V8::Add(V8::Load(c0 + kL), acc01));
      c0 = c + ldc;
      V8::Store(c0, V8::Add(V8::Load(c0), acc10));
      V8::Store(c0 + kL, V8::Add(V8::Load(c0 + kL), acc11));
      c0 = c + 2 * ldc;
      V8::Store(c0, V8::Add(V8::Load(c0), acc20));
      V8::Store(c0 + kL, V8::Add(V8::Load(c0 + kL), acc21));
      c0 = c + 3 * ldc;
      V8::Store(c0, V8::Add(V8::Load(c0), acc30));
      V8::Store(c0 + kL, V8::Add(V8::Load(c0 + kL), acc31));
      c0 = c + 4 * ldc;
      V8::Store(c0, V8::Add(V8::Load(c0), acc40));
      V8::Store(c0 + kL, V8::Add(V8::Load(c0 + kL), acc41));
      c0 = c + 5 * ldc;
      V8::Store(c0, V8::Add(V8::Load(c0), acc50));
      V8::Store(c0 + kL, V8::Add(V8::Load(c0 + kL), acc51));
    } else {
      float buf[kMr * kNr];
      V8::Store(buf + 0 * kNr, acc00);
      V8::Store(buf + 0 * kNr + kL, acc01);
      V8::Store(buf + 1 * kNr, acc10);
      V8::Store(buf + 1 * kNr + kL, acc11);
      V8::Store(buf + 2 * kNr, acc20);
      V8::Store(buf + 2 * kNr + kL, acc21);
      V8::Store(buf + 3 * kNr, acc30);
      V8::Store(buf + 3 * kNr + kL, acc31);
      V8::Store(buf + 4 * kNr, acc40);
      V8::Store(buf + 4 * kNr + kL, acc41);
      V8::Store(buf + 5 * kNr, acc50);
      V8::Store(buf + 5 * kNr + kL, acc51);
      for (int r = 0; r < rows; ++r) {
        float* crow = c + static_cast<int64_t>(r) * ldc;
        for (int j = 0; j < cols; ++j) crow[j] += buf[r * kNr + j];
      }
    }
  }

  // Processes C rows [i0, i1): all kc blocks, then the fused epilogue.
  // bpack holds every kc block of packed B, laid out back to back.
  static void GemmRowChunk(const GemmArgs& g, const float* bpack, int i0,
                           int i1) {
    const int k = g.k;
    const int n = g.n;
    const int np = (n + kNr - 1) / kNr;
    thread_local Tensor apack;
    for (int pc = 0; pc < k; pc += kGemmKc) {
      const int pe = std::min(k, pc + kGemmKc);
      const int kc_len = pe - pc;
      const float* bblock =
          bpack + static_cast<int64_t>(pc) * (np * kNr);
      const int mp = (i1 - i0 + kMr - 1) / kMr;
      apack.ResizeUninit(mp * kMr, kc_len);
      PackA(g, i0, i1, pc, pe, apack.data());
      for (int ip = 0; ip < mp; ++ip) {
        const int r0 = i0 + ip * kMr;
        const int rw = std::min(kMr, i1 - r0);
        const float* apanel =
            apack.data() + static_cast<int64_t>(ip) * kc_len * kMr;
        for (int jp = 0; jp < np; ++jp) {
          const int j0 = jp * kNr;
          const int jw = std::min(kNr, n - j0);
          Micro(kc_len, apanel,
                bblock + static_cast<int64_t>(jp) * kc_len * kNr,
                g.c + static_cast<int64_t>(r0) * n + j0, n, rw, jw);
        }
      }
    }
    if (g.bias != nullptr || g.act != Activation::kNone) {
      BiasActRows(g.c + static_cast<int64_t>(i0) * n, g.bias, i1 - i0, n,
                  g.act, g.leaky_slope);
    }
  }

  static void Gemm(const GemmArgs& g) {
    const int m = g.m;
    const int n = g.n;
    const int k = g.k;
    if (m == 0 || n == 0) return;
    if (k == 0) {
      // Nothing to accumulate, but the fused epilogue still applies.
      if (g.bias != nullptr || g.act != Activation::kNone) {
        BiasActRows(g.c, g.bias, m, n, g.act, g.leaky_slope);
      }
      return;
    }
    // Pack all of B once (k x n_padded floats); the packing cost is
    // O(k*n) against O(m*n*k) compute. Thread-local so concurrent Gemm
    // callers (fold-level parallelism) never share a workspace; the
    // ParallelFor below nests inline, so workers reading bpack are
    // executing this caller's chunks.
    const int np = (n + kNr - 1) / kNr;
    thread_local Tensor bpack;
    bpack.ResizeUninit(k, np * kNr);
    for (int pc = 0; pc < k; pc += kGemmKc) {
      const int pe = std::min(k, pc + kGemmKc);
      PackB(g, pc, pe, bpack.data() + static_cast<int64_t>(pc) * (np * kNr));
    }
    const float* bpd = bpack.data();
    const bool parallel =
        static_cast<int64_t>(m) * n * k >= kGemmFlopThreshold;
    if (parallel) {
      ParallelFor(0, m, kGemmRowGrain, [&](int64_t i0, int64_t i1) {
        GemmRowChunk(g, bpd, static_cast<int>(i0), static_cast<int>(i1));
      });
    } else {
      GemmRowChunk(g, bpd, 0, m);
    }
  }

  // ------------------------------------------------------------------
  // Matrix-vector product: Gemm for n == 1 without packing. Lane l of a
  // vector is row i + l of C, so each row gets Micro's lane arithmetic:
  // per kGemmKc block an Fma chain from zero of (alpha * op(A)(i, p)) *
  // b[p] over p ascending, then one add into C, and the epilogue after
  // the last block. op(A) is read in place: a column of A^T is contiguous,
  // and 8 x 8 blocks of a row-major A are transposed in registers. Rows past
  // m and columns past a block's end load as zeros and are never stored.
  // ------------------------------------------------------------------

  // Eight consecutive floats from p, or the first `count` and zeros.
  static V8 LoadPartial(const float* p, int count) {
    if (count == kL) return V8::Load(p);
    float buf[kL] = {};
    std::copy(p, p + count, buf);
    return V8::Load(buf);
  }

  static void GemvRows(const GemmArgs& g, int i0, int i1) {
    const V8 alpha = V8::Broadcast(g.alpha);
    const int k = g.k;
    for (int i = i0; i < i1; i += kL) {
      const int rows = std::min(kL, i1 - i);
      V8 c = LoadPartial(g.c + i, rows);
      for (int pc = 0; pc < k; pc += kGemmKc) {
        const int pe = std::min(k, pc + kGemmKc);
        V8 acc = V8::Zero();
        if (g.trans_a) {
          // A is k x m: op(A)(i + l, p) = A(p, i + l), contiguous in l.
          for (int p = pc; p < pe; ++p) {
            const V8 a = LoadPartial(g.a + static_cast<int64_t>(p) * g.m + i,
                                     rows);
            acc = V8::Fma(V8::Mul(alpha, a), V8::Broadcast(g.b[p]), acc);
          }
        } else {
          // A is m x k: load 8 rows of an 8-column block, then transpose so
          // vector j holds column p + j across the rows.
          for (int p = pc; p < pe; p += kL) {
            const int cols = std::min(kL, pe - p);
            V8 t[kL];
            for (int r = 0; r < kL; ++r) {
              t[r] = r < rows ? LoadPartial(
                                    g.a + static_cast<int64_t>(i + r) * k + p,
                                    cols)
                              : V8::Zero();
            }
            V8::Transpose8(t);
            for (int j = 0; j < cols; ++j) {
              acc = V8::Fma(V8::Mul(alpha, t[j]), V8::Broadcast(g.b[p + j]),
                            acc);
            }
          }
        }
        c = V8::Add(c, acc);
      }
      if (rows == kL) {
        V8::Store(g.c + i, c);
      } else {
        float part[kL];
        V8::Store(part, c);
        std::copy(part, part + rows, g.c + i);
      }
    }
    if (g.bias != nullptr || g.act != Activation::kNone) {
      BiasActRows(g.c + i0, g.bias, i1 - i0, 1, g.act, g.leaky_slope);
    }
  }

  static void Gemv(const GemmArgs& g) {
    if (g.m == 0) return;
    // b has one column: b[p] is element p whether or not it is transposed.
    if (static_cast<int64_t>(g.m) * g.k >= kGemmFlopThreshold) {
      ParallelFor(0, g.m, kGemmRowGrain, [&](int64_t i0, int64_t i1) {
        GemvRows(g, static_cast<int>(i0), static_cast<int>(i1));
      });
    } else {
      GemvRows(g, 0, g.m);
    }
  }

  // ------------------------------------------------------------------
  // Implicit-GEMM convolution (see ConvArgs). Output channels run across
  // the vector lanes and input pixels are broadcast from the padded image,
  // so a register tile is kConvTile pixels by kL channels and no
  // im2col matrix is written. Each output element gets the packed GEMM's
  // arithmetic with A = W and B = im2col(image): per kGemmKc block of
  // taps, ascending, one Fma chain from zero added into a sum that starts
  // at zero; then the bias add and the optional ReLU. The padding pixels
  // are the same zeros im2col writes, so every result equals the GEMM
  // path's bit for bit on each backend.
  // ------------------------------------------------------------------
  static void Conv2d(const ConvArgs& g) {
    static_assert(kL == kConvTile);
    constexpr int kT = kConvTile;
    const int64_t ldw = (g.out_channels + kL - 1) / kL * kL;
    const V8 zero = V8::Zero();
    for (int c0 = 0; c0 < g.out_channels; c0 += kL) {
      const int cw = std::min(kL, g.out_channels - c0);
      const float* wcol = g.weights + c0;
      const V8 bias = V8::Load(wcol + g.taps * ldw);
      for (int p0 = 0; p0 < g.pixels; p0 += kT) {
        const float* px[kT];
        V8 sum[kT];
        for (int r = 0; r < kT; ++r) {
          px[r] = g.image + g.pixel_offsets[p0 + r];
          sum[r] = zero;
        }
        for (int t0 = 0; t0 < g.taps; t0 += kGemmKc) {
          const int t1 = std::min(g.taps, t0 + kGemmKc);
          V8 acc[kT];
          for (int r = 0; r < kT; ++r) acc[r] = zero;
          for (int t = t0; t < t1; ++t) {
            const int off = g.tap_offsets[t];
            const V8 w = V8::Load(wcol + t * ldw);
            for (int r = 0; r < kT; ++r) {
              acc[r] = V8::Fma(V8::Broadcast(px[r][off]), w, acc[r]);
            }
          }
          for (int r = 0; r < kT; ++r) sum[r] = V8::Add(sum[r], acc[r]);
        }
        // Lanes are channels here and pixels in the CHW output, so the
        // tile is transposed before it is stored.
        for (int r = 0; r < kT; ++r) {
          sum[r] = V8::Add(sum[r], bias);
          if (g.relu) sum[r] = V8::Max(sum[r], zero);
        }
        V8::Transpose8(sum);
        const int pw = std::min(kT, g.pixels - p0);
        for (int c = 0; c < cw; ++c) {
          float* dst = g.out + (c0 + c) * static_cast<int64_t>(g.pixels) + p0;
          if (pw == kT) {
            V8::Store(dst, sum[c]);
          } else {
            float part[kT];
            V8::Store(part, sum[c]);
            std::copy(part, part + pw, dst);
          }
        }
      }
    }
  }

  // ------------------------------------------------------------------
  // Max pool (see PoolArgs), kL outputs of one output row per vector: lane
  // l gathers column l * stride of the block's windows, so one path serves
  // every kernel and stride. Each lane visits its window tap by tap in the
  // scalar loop's order (ky, then kx) and keeps Max(v, best), which is
  // `v > best ? v : best` on both backends: a window keeps its first
  // maximum, never selects a NaN, and an all-NaN window gives -inf. A
  // row's last, partial block reads the block's first window in its spare
  // lanes and stores only its own.
  // ------------------------------------------------------------------
  static void MaxPool(const PoolArgs& g) {
    const int oh = (g.h - g.kernel) / g.stride + 1;
    const int ow = (g.w - g.kernel) / g.stride + 1;
    int full[kL], partial[kL];
    for (int l = 0; l < kL; ++l) {
      full[l] = l * g.stride;
      partial[l] = l < ow % kL ? full[l] : 0;
    }
    const V8 lowest = V8::Broadcast(-std::numeric_limits<float>::infinity());
    float* out = g.out;
    for (int c = 0; c < g.channels; ++c) {
      for (int oy = 0; oy < oh; ++oy) {
        const float* row =
            g.image + (static_cast<int64_t>(c) * g.h + oy * g.stride) * g.w;
        for (int ox = 0; ox < ow; ox += kL) {
          const int lanes = std::min(kL, ow - ox);
          const int* lane = lanes == kL ? full : partial;
          const float* window = row + ox * g.stride;
          V8 best = lowest;
          for (int ky = 0; ky < g.kernel; ++ky) {
            for (int kx = 0; kx < g.kernel; ++kx) {
              best = V8::Max(V8::Gather(window + ky * g.w + kx, lane), best);
            }
          }
          if (lanes == kL) {
            V8::Store(out, best);
          } else {
            float part[kL];
            V8::Store(part, best);
            std::copy(part, part + lanes, out);
          }
          out += lanes;
        }
      }
    }
  }

  // The dispatch table for this backend.
  static KernelDispatch Table(const char* name) {
    KernelDispatch t;
    t.name = name;
    t.gemm = &Kernels::Gemm;
    t.gemv = &Kernels::Gemv;
    t.conv2d = &Kernels::Conv2d;
    t.max_pool = &Kernels::MaxPool;
    t.axpy = &Kernels::Axpy;
    t.mul = &Kernels::Mul;
    t.scale = &Kernels::Scale;
    t.add_row_vector = &Kernels::AddRowVector;
    t.max_abs_diff = &Kernels::MaxAbsDiff;
    t.row_softmax = &Kernels::RowSoftmax;
    t.row_l2_normalize = &Kernels::RowL2Normalize;
    t.bias_act_rows = &Kernels::BiasActRows;
    return t;
  }
};

}  // namespace uv::kern

#endif  // UV_TENSOR_KERNELS_KERNELS_IMPL_H_
