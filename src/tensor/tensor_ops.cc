#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "obs/trace.h"
#include "tensor/kernels/kernel_dispatch.h"
#include "util/thread_pool.h"

namespace uv {
namespace {

using kern::kElementwiseGrain;
using kern::kElementwiseThreshold;

// In-place x *= s over a flat span, parallel above the threshold. The
// grain is a multiple of the vector width, so every chunk starts lane-
// aligned and the vector/tail split per element depends only on n.
void ScaleSpan(float* x, int64_t n, float s) {
  const kern::KernelDispatch& k = kern::Active();
  if (n >= kElementwiseThreshold) {
    ParallelFor(0, n, kElementwiseGrain, [&](int64_t lo, int64_t hi) {
      k.scale(x + lo, s, hi - lo);
    });
  } else {
    k.scale(x, s, n);
  }
}

// Row grain for kernels parallelized over matrix rows: aim for chunks of
// about one elementwise grain worth of elements.
int64_t RowGrain(int64_t cols) {
  return std::max<int64_t>(1, kElementwiseGrain / std::max<int64_t>(1, cols));
}

}  // namespace

void GemmBiasAct(bool transpose_a, bool transpose_b, float alpha,
                 const Tensor& a, const Tensor& b, float beta, Tensor* c,
                 const Tensor* bias, kern::Activation act,
                 float leaky_slope) {
  const int m = transpose_a ? a.cols() : a.rows();
  const int k = transpose_a ? a.rows() : a.cols();
  const int kb = transpose_b ? b.cols() : b.rows();
  const int n = transpose_b ? b.rows() : b.cols();
  UV_CHECK_EQ(k, kb);
  UV_CHECK_EQ(c->rows(), m);
  UV_CHECK_EQ(c->cols(), n);
  if (bias != nullptr) {
    UV_CHECK_EQ(bias->rows(), 1);
    UV_CHECK_EQ(bias->cols(), n);
  }
  obs::SpanGuard span("gemm", obs::SpanLevel::kFine, "m", m, "n", n);

  if (beta == 0.0f) {
    c->Zero();
  } else if (beta != 1.0f) {
    ScaleSpan(c->data(), c->size(), beta);
  }

  kern::GemmArgs args;
  args.m = m;
  args.n = n;
  args.k = k;
  args.trans_a = transpose_a;
  args.trans_b = transpose_b;
  args.alpha = alpha;
  args.a = a.data();
  args.b = b.data();
  args.c = c->data();
  args.bias = bias != nullptr ? bias->data() : nullptr;
  args.act = act;
  args.leaky_slope = leaky_slope;
  if (n == 1) {
    kern::Active().gemv(args);
  } else {
    kern::Active().gemm(args);
  }
}

void Gemm(bool transpose_a, bool transpose_b, float alpha, const Tensor& a,
          const Tensor& b, float beta, Tensor* c) {
  GemmBiasAct(transpose_a, transpose_b, alpha, a, b, beta, c, nullptr,
              kern::Activation::kNone, 0.0f);
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  // Uninit: Gemm with beta == 0 zero-fills c itself before accumulating.
  Tensor c = Tensor::Uninit(a.rows(), b.cols());
  Gemm(false, false, 1.0f, a, b, 0.0f, &c);
  return c;
}

void Axpy(float alpha, const Tensor& x, Tensor* y) {
  UV_CHECK(x.SameShape(*y));
  float* yd = y->data();
  const float* xd = x.data();
  const kern::KernelDispatch& k = kern::Active();
  if (x.size() >= kElementwiseThreshold) {
    ParallelFor(0, x.size(), kElementwiseGrain, [&](int64_t lo, int64_t hi) {
      k.axpy(alpha, xd + lo, yd + lo, hi - lo);
    });
    return;
  }
  k.axpy(alpha, xd, yd, x.size());
}

Tensor Add(const Tensor& a, const Tensor& b) {
  UV_CHECK(a.SameShape(b));
  Tensor out = a;
  Axpy(1.0f, b, &out);
  return out;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  UV_CHECK(a.SameShape(b));
  Tensor out = a;
  Axpy(-1.0f, b, &out);
  return out;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  UV_CHECK(a.SameShape(b));
  Tensor out = Tensor::Uninit(a.rows(), a.cols());
  const float* ad = a.data();
  const float* bd = b.data();
  float* od = out.data();
  const kern::KernelDispatch& k = kern::Active();
  if (a.size() >= kElementwiseThreshold) {
    ParallelFor(0, a.size(), kElementwiseGrain, [&](int64_t lo, int64_t hi) {
      k.mul(ad + lo, bd + lo, od + lo, hi - lo);
    });
    return out;
  }
  k.mul(ad, bd, od, a.size());
  return out;
}

Tensor Scale(const Tensor& a, float s) {
  Tensor out = a;
  ScaleSpan(out.data(), out.size(), s);
  return out;
}

void AddRowVectorInPlace(const Tensor& row_vec, Tensor* a) {
  UV_CHECK_EQ(row_vec.rows(), 1);
  UV_CHECK_EQ(row_vec.cols(), a->cols());
  const float* v = row_vec.data();
  float* ad = a->data();
  const int64_t cols = a->cols();
  const kern::KernelDispatch& k = kern::Active();
  if (a->size() >= kElementwiseThreshold && a->rows() > 1) {
    ParallelFor(0, a->rows(), RowGrain(cols), [&](int64_t r0, int64_t r1) {
      k.add_row_vector(v, ad + r0 * cols, r1 - r0, cols);
    });
    return;
  }
  k.add_row_vector(v, ad, a->rows(), cols);
}

void TransposeInto(const Tensor& a, Tensor* out) {
  UV_CHECK_EQ(out->rows(), a.cols());
  UV_CHECK_EQ(out->cols(), a.rows());
  const int acols = a.cols();
  const int arows = a.rows();
  float* od = out->data();
  auto rows = [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const float* arow = a.row(static_cast<int>(r));
      for (int c = 0; c < acols; ++c) {
        od[static_cast<size_t>(c) * arows + r] = arow[c];
      }
    }
  };
  if (a.size() >= kElementwiseThreshold && arows > 1) {
    ParallelFor(0, arows, RowGrain(acols), rows);
  } else {
    rows(0, arows);
  }
}

Tensor Transpose(const Tensor& a) {
  Tensor out = Tensor::Uninit(a.cols(), a.rows());
  TransposeInto(a, &out);
  return out;
}

Tensor RowSoftmax(const Tensor& a, float temperature) {
  UV_CHECK(temperature > 0.0f);
  Tensor out = Tensor::Uninit(a.rows(), a.cols());
  const float inv_temp = 1.0f / temperature;
  const float* in = a.data();
  float* o = out.data();
  const int64_t cols = a.cols();
  const kern::KernelDispatch& k = kern::Active();
  if (a.size() >= kElementwiseThreshold && a.rows() > 1) {
    ParallelFor(0, a.rows(), RowGrain(cols), [&](int64_t r0, int64_t r1) {
      k.row_softmax(in + r0 * cols, o + r0 * cols, r1 - r0, cols, inv_temp);
    });
    return out;
  }
  k.row_softmax(in, o, a.rows(), cols, inv_temp);
  return out;
}

std::vector<int> RowArgmax(const Tensor& a) {
  std::vector<int> out(a.rows(), 0);
  for (int r = 0; r < a.rows(); ++r) {
    const float* in = a.row(r);
    int best = 0;
    for (int c = 1; c < a.cols(); ++c) {
      if (in[c] > in[best]) best = c;
    }
    out[r] = best;
  }
  return out;
}

Tensor RowL2Normalize(const Tensor& a) {
  Tensor out = a;
  float* od = out.data();
  const int64_t cols = out.cols();
  const kern::KernelDispatch& k = kern::Active();
  if (out.size() >= kElementwiseThreshold && out.rows() > 1) {
    ParallelFor(0, out.rows(), RowGrain(cols), [&](int64_t r0, int64_t r1) {
      k.row_l2_normalize(od + r0 * cols, r1 - r0, cols);
    });
    return out;
  }
  k.row_l2_normalize(od, out.rows(), cols);
  return out;
}

Tensor ColumnMean(const Tensor& a) {
  Tensor out(1, a.cols());
  if (a.rows() == 0) return out;
  std::vector<double> acc(a.cols(), 0.0);
  for (int r = 0; r < a.rows(); ++r) {
    const float* row = a.row(r);
    for (int c = 0; c < a.cols(); ++c) acc[c] += row[c];
  }
  for (int c = 0; c < a.cols(); ++c) {
    out.at(0, c) = static_cast<float>(acc[c] / a.rows());
  }
  return out;
}

Tensor ColumnStd(const Tensor& a, const Tensor& mean) {
  UV_CHECK_EQ(mean.rows(), 1);
  UV_CHECK_EQ(mean.cols(), a.cols());
  Tensor out(1, a.cols());
  if (a.rows() == 0) return out;
  std::vector<double> acc(a.cols(), 0.0);
  for (int r = 0; r < a.rows(); ++r) {
    const float* row = a.row(r);
    for (int c = 0; c < a.cols(); ++c) {
      const double d = row[c] - mean.at(0, c);
      acc[c] += d * d;
    }
  }
  for (int c = 0; c < a.cols(); ++c) {
    out.at(0, c) = static_cast<float>(std::sqrt(acc[c] / a.rows()));
  }
  return out;
}

void StandardizeColumnsInPlace(Tensor* a) {
  const Tensor mean = ColumnMean(*a);
  const Tensor std = ColumnStd(*a, mean);
  for (int r = 0; r < a->rows(); ++r) {
    float* row = a->row(r);
    for (int c = 0; c < a->cols(); ++c) {
      const float s = std.at(0, c);
      row[c] = (row[c] - mean.at(0, c)) / (s > 1e-6f ? s : 1.0f);
    }
  }
}

Tensor ConcatCols(const Tensor& a, const Tensor& b) {
  UV_CHECK_EQ(a.rows(), b.rows());
  Tensor out = Tensor::Uninit(a.rows(), a.cols() + b.cols());
  for (int r = 0; r < a.rows(); ++r) {
    float* o = out.row(r);
    std::copy(a.row(r), a.row(r) + a.cols(), o);
    std::copy(b.row(r), b.row(r) + b.cols(), o + a.cols());
  }
  return out;
}

Tensor SliceCols(const Tensor& a, int col_begin, int col_end) {
  UV_CHECK_GE(col_begin, 0);
  UV_CHECK_LE(col_end, a.cols());
  UV_CHECK_LE(col_begin, col_end);
  Tensor out = Tensor::Uninit(a.rows(), col_end - col_begin);
  for (int r = 0; r < a.rows(); ++r) {
    std::copy(a.row(r) + col_begin, a.row(r) + col_end, out.row(r));
  }
  return out;
}

Tensor GatherRows(const Tensor& a, const std::vector<int>& indices) {
  Tensor out;
  GatherRowsInto(a, indices.data(), static_cast<int>(indices.size()), &out);
  return out;
}

void GatherRowsInto(const Tensor& a, const int* ids, int n, Tensor* out) {
  out->ResizeUninit(n, a.cols());
  for (int i = 0; i < n; ++i) {
    UV_CHECK_GE(ids[i], 0);
    UV_CHECK_LT(ids[i], a.rows());
    std::memcpy(out->row(i), a.row(ids[i]),
                sizeof(float) * static_cast<size_t>(a.cols()));
  }
}

float MaxAbsDiff(const Tensor& a, const Tensor& b) {
  UV_CHECK(a.SameShape(b));
  const float* ad = a.data();
  const float* bd = b.data();
  const int64_t n = a.size();
  const kern::KernelDispatch& k = kern::Active();
  if (n >= kElementwiseThreshold) {
    // Per-chunk partial maxima land in slots indexed by chunk position;
    // max is exact and order-free, so the combine is trivially
    // deterministic.
    const int64_t num_chunks =
        (n + kElementwiseGrain - 1) / kElementwiseGrain;
    std::vector<float> partial(static_cast<size_t>(num_chunks), 0.0f);
    ParallelFor(0, n, kElementwiseGrain, [&](int64_t lo, int64_t hi) {
      partial[static_cast<size_t>(lo / kElementwiseGrain)] =
          k.max_abs_diff(ad + lo, bd + lo, hi - lo);
    });
    float m = 0.0f;
    for (const float p : partial) m = std::max(m, p);
    return m;
  }
  return k.max_abs_diff(ad, bd, n);
}

}  // namespace uv
