#include <algorithm>
#include <cmath>
#include <utility>

#include "autograd/ops.h"
#include "tensor/forward_ops.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"

namespace uv::ag {

VarPtr MatMul(const VarPtr& a, const VarPtr& b) {
  UV_CHECK_EQ(a->cols(), b->rows());
  Tensor out = uv::MatMul(a->value, b->value);
  VarPtr av = a, bv = b;
  return MakeOp(
      std::move(out), {a, b},
      [av, bv](Variable* self) {
        // dA = dC * B^T ; dB = A^T * dC.
        if (av->requires_grad) {
          Tensor& ga = av->EnsureGrad();
          Gemm(false, true, 1.0f, self->grad, bv->value, 1.0f, &ga);
        }
        if (bv->requires_grad) {
          Tensor& gb = bv->EnsureGrad();
          Gemm(true, false, 1.0f, av->value, self->grad, 1.0f, &gb);
        }
      },
      "matmul");
}

VarPtr Add(const VarPtr& a, const VarPtr& b) {
  Tensor out = uv::Add(a->value, b->value);
  VarPtr av = a, bv = b;
  return MakeOp(
      std::move(out), {a, b},
      [av, bv](Variable* self) {
        if (av->requires_grad) av->AccumGrad(self->grad);
        if (bv->requires_grad) bv->AccumGrad(self->grad);
      },
      "add");
}

VarPtr Sub(const VarPtr& a, const VarPtr& b) {
  Tensor out = uv::Sub(a->value, b->value);
  VarPtr av = a, bv = b;
  return MakeOp(
      std::move(out), {a, b},
      [av, bv](Variable* self) {
        if (av->requires_grad) av->AccumGrad(self->grad);
        if (bv->requires_grad) {
          Tensor& gb = bv->EnsureGrad();
          Axpy(-1.0f, self->grad, &gb);
        }
      },
      "sub");
}

VarPtr Mul(const VarPtr& a, const VarPtr& b) {
  Tensor out = uv::Mul(a->value, b->value);
  VarPtr av = a, bv = b;
  return MakeOp(
      std::move(out), {a, b},
      [av, bv](Variable* self) {
        if (av->requires_grad) av->AccumGrad(uv::Mul(self->grad, bv->value));
        if (bv->requires_grad) bv->AccumGrad(uv::Mul(self->grad, av->value));
      },
      "mul");
}

VarPtr ScalarMul(const VarPtr& a, float s) {
  Tensor out = uv::Scale(a->value, s);
  VarPtr av = a;
  return MakeOp(
      std::move(out), {a},
      [av, s](Variable* self) {
        if (av->requires_grad) av->AccumGrad(uv::Scale(self->grad, s));
      },
      "scalar_mul");
}

VarPtr DenseBiasAct(const VarPtr& x, const VarPtr& w, const VarPtr& b,
                    kern::Activation act, float leaky_slope) {
  UV_CHECK_EQ(x->cols(), w->rows());
  UV_CHECK_EQ(b->rows(), 1);
  UV_CHECK_EQ(b->cols(), w->cols());
  // One fused pass: GEMM accumulates x*W, then the bias row and the
  // activation are applied inside the still-hot output tiles instead of
  // as two more full-matrix sweeps (MatMul + AddRowBroadcast + Pointwise).
  Tensor out = Tensor::Uninit(x->rows(), w->cols());
  GemmBiasAct(false, false, 1.0f, x->value, w->value, 0.0f, &out,
              &b->value, act, leaky_slope);
  VarPtr xv = x, wv = w, bv = b;
  return MakeOp(
      std::move(out), {x, w, b},
      [xv, wv, bv, act, leaky_slope](Variable* self) {
        // The activation derivative is recoverable from the output alone:
        // relu/leaky-relu preserve the sign of the pre-activation (for
        // slope > 0), sigmoid' = y*(1-y). So the fused op never has to
        // save the pre-activation matrix.
        const Tensor* gz = &self->grad;
        Tensor gz_local;
        if (act != kern::Activation::kNone) {
          gz_local = Tensor::Uninit(self->grad.rows(), self->grad.cols());
          const float* y = self->value.data();
          const float* g = self->grad.data();
          float* o = gz_local.data();
          switch (act) {
            case kern::Activation::kRelu:
              for (int64_t i = 0; i < gz_local.size(); ++i) {
                o[i] = y[i] > 0.0f ? g[i] : 0.0f;
              }
              break;
            case kern::Activation::kLeakyRelu:
              for (int64_t i = 0; i < gz_local.size(); ++i) {
                o[i] = y[i] > 0.0f ? g[i] : leaky_slope * g[i];
              }
              break;
            case kern::Activation::kSigmoid:
              for (int64_t i = 0; i < gz_local.size(); ++i) {
                o[i] = g[i] * y[i] * (1.0f - y[i]);
              }
              break;
            case kern::Activation::kNone:
              break;
          }
          gz = &gz_local;
        }
        if (xv->requires_grad) {
          Tensor& gx = xv->EnsureGrad();
          Gemm(false, true, 1.0f, *gz, wv->value, 1.0f, &gx);
        }
        if (wv->requires_grad) {
          Tensor& gw = wv->EnsureGrad();
          Gemm(true, false, 1.0f, xv->value, *gz, 1.0f, &gw);
        }
        if (bv->requires_grad) {
          Tensor& gb = bv->EnsureGrad();
          for (int r = 0; r < gz->rows(); ++r) {
            const float* g = gz->row(r);
            float* gbd = gb.data();
            for (int c = 0; c < gz->cols(); ++c) gbd[c] += g[c];
          }
        }
      },
      "dense_bias_act");
}

VarPtr AddRowBroadcast(const VarPtr& x, const VarPtr& bias) {
  UV_CHECK_EQ(bias->rows(), 1);
  UV_CHECK_EQ(bias->cols(), x->cols());
  Tensor out = x->value;
  AddRowVectorInPlace(bias->value, &out);
  VarPtr xv = x, bv = bias;
  return MakeOp(
      std::move(out), {x, bias},
      [xv, bv](Variable* self) {
        if (xv->requires_grad) xv->AccumGrad(self->grad);
        if (bv->requires_grad) {
          Tensor& gb = bv->EnsureGrad();
          for (int r = 0; r < self->grad.rows(); ++r) {
            const float* g = self->grad.row(r);
            for (int c = 0; c < self->grad.cols(); ++c) gb.at(0, c) += g[c];
          }
        }
      },
      "add_row_broadcast");
}

VarPtr MulColBroadcast(const VarPtr& x, const VarPtr& scale) {
  Tensor out = x->value;
  MulColBroadcastInPlace(scale->value, &out);
  VarPtr xv = x, sv = scale;
  return MakeOp(
      std::move(out), {x, scale},
      [xv, sv](Variable* self) {
        if (xv->requires_grad) {
          Tensor gx = self->grad;
          for (int r = 0; r < gx.rows(); ++r) {
            const float s = sv->value.at(r, 0);
            float* row = gx.row(r);
            for (int c = 0; c < gx.cols(); ++c) row[c] *= s;
          }
          xv->AccumGrad(std::move(gx));
        }
        if (sv->requires_grad) {
          Tensor& gs = sv->EnsureGrad();
          for (int r = 0; r < self->grad.rows(); ++r) {
            const float* g = self->grad.row(r);
            const float* xr = xv->value.row(r);
            float acc = 0.0f;
            for (int c = 0; c < self->grad.cols(); ++c) acc += g[c] * xr[c];
            gs.at(r, 0) += acc;
          }
        }
      },
      "mul_col_broadcast");
}

VarPtr MulRowVector(const VarPtr& x, const VarPtr& v) {
  Tensor out = x->value;
  MulRowVectorInPlace(v->value, &out);
  VarPtr xv = x, vv = v;
  return MakeOp(
      std::move(out), {x, v},
      [xv, vv](Variable* self) {
        if (xv->requires_grad) {
          Tensor gx = self->grad;
          const float* vd = vv->value.data();
          for (int r = 0; r < gx.rows(); ++r) {
            float* row = gx.row(r);
            for (int c = 0; c < gx.cols(); ++c) row[c] *= vd[c];
          }
          xv->AccumGrad(std::move(gx));
        }
        if (vv->requires_grad) {
          Tensor& gv = vv->EnsureGrad();
          for (int r = 0; r < self->grad.rows(); ++r) {
            const float* g = self->grad.row(r);
            const float* xr = xv->value.row(r);
            for (int c = 0; c < self->grad.cols(); ++c) {
              gv.at(0, c) += g[c] * xr[c];
            }
          }
        }
      },
      "mul_row_vector");
}

VarPtr Transpose(const VarPtr& a) {
  Tensor out = uv::Transpose(a->value);
  VarPtr av = a;
  return MakeOp(
      std::move(out), {a},
      [av](Variable* self) {
        if (av->requires_grad) av->AccumGrad(uv::Transpose(self->grad));
      },
      "transpose");
}

VarPtr ConcatCols(const VarPtr& a, const VarPtr& b) {
  Tensor out = uv::ConcatCols(a->value, b->value);
  VarPtr av = a, bv = b;
  const int ac = a->cols();
  const int bc = b->cols();
  return MakeOp(
      std::move(out), {a, b},
      [av, bv, ac, bc](Variable* self) {
        if (av->requires_grad) av->AccumGrad(uv::SliceCols(self->grad, 0, ac));
        if (bv->requires_grad) {
          bv->AccumGrad(uv::SliceCols(self->grad, ac, ac + bc));
        }
      },
      "concat_cols");
}

VarPtr ConcatRows(const VarPtr& a, const VarPtr& b) {
  UV_CHECK_EQ(a->cols(), b->cols());
  Tensor out = Tensor::Uninit(a->rows() + b->rows(), a->cols());
  for (int r = 0; r < a->rows(); ++r) {
    std::copy(a->value.row(r), a->value.row(r) + a->cols(), out.row(r));
  }
  for (int r = 0; r < b->rows(); ++r) {
    std::copy(b->value.row(r), b->value.row(r) + b->cols(),
              out.row(a->rows() + r));
  }
  VarPtr av = a, bv = b;
  const int ar = a->rows();
  return MakeOp(
      std::move(out), {a, b},
      [av, bv, ar](Variable* self) {
        if (av->requires_grad) {
          Tensor ga = Tensor::Uninit(ar, self->grad.cols());
          for (int r = 0; r < ar; ++r) {
            std::copy(self->grad.row(r), self->grad.row(r) + ga.cols(),
                      ga.row(r));
          }
          av->AccumGrad(std::move(ga));
        }
        if (bv->requires_grad) {
          Tensor gb =
              Tensor::Uninit(self->grad.rows() - ar, self->grad.cols());
          for (int r = 0; r < gb.rows(); ++r) {
            std::copy(self->grad.row(ar + r),
                      self->grad.row(ar + r) + gb.cols(), gb.row(r));
          }
          bv->AccumGrad(std::move(gb));
        }
      },
      "concat_rows");
}

VarPtr SliceCols(const VarPtr& a, int col_begin, int col_end) {
  Tensor out = uv::SliceCols(a->value, col_begin, col_end);
  VarPtr av = a;
  return MakeOp(
      std::move(out), {a},
      [av, col_begin](Variable* self) {
        if (!av->requires_grad) return;
        Tensor& ga = av->EnsureGrad();
        for (int r = 0; r < self->grad.rows(); ++r) {
          const float* g = self->grad.row(r);
          float* dst = ga.row(r) + col_begin;
          for (int c = 0; c < self->grad.cols(); ++c) dst[c] += g[c];
        }
      },
      "slice_cols");
}

VarPtr RowSoftmax(const VarPtr& a, float temperature) {
  Tensor out = uv::RowSoftmax(a->value, temperature);
  VarPtr av = a;
  return MakeOp(
      std::move(out), {a},
      [av, temperature](Variable* self) {
        if (!av->requires_grad) return;
        // The node's own value is the softmax output; only parameters are
        // ever reassigned after creation, so no copy needs keeping.
        const Tensor& soft = self->value;
        Tensor ga = Tensor::Uninit(soft.rows(), soft.cols());
        for (int r = 0; r < soft.rows(); ++r) {
          const float* p = soft.row(r);
          const float* g = self->grad.row(r);
          float dot = 0.0f;
          for (int c = 0; c < soft.cols(); ++c) dot += p[c] * g[c];
          float* gr = ga.row(r);
          for (int c = 0; c < soft.cols(); ++c) {
            gr[c] = p[c] * (g[c] - dot) / temperature;
          }
        }
        av->AccumGrad(std::move(ga));
      },
      "row_softmax");
}

namespace {

// Shared implementation for pointwise activations: fwd maps x -> y, dfn maps
// (x, y) -> dy/dx. The backward reads y from the node's own value.
template <typename Fwd, typename Dfn>
VarPtr Pointwise(const VarPtr& a, Fwd fwd, Dfn dfn, const char* name) {
  Tensor out = Tensor::Uninit(a->rows(), a->cols());
  const float* in = a->value.data();
  float* o = out.data();
  for (int64_t i = 0; i < out.size(); ++i) o[i] = fwd(in[i]);
  VarPtr av = a;
  return MakeOp(
      std::move(out), {a},
      [av, dfn](Variable* self) {
        if (!av->requires_grad) return;
        Tensor ga = Tensor::Uninit(self->grad.rows(), self->grad.cols());
        const float* x = av->value.data();
        const float* y = self->value.data();
        const float* g = self->grad.data();
        float* gd = ga.data();
        for (int64_t i = 0; i < ga.size(); ++i) gd[i] = g[i] * dfn(x[i], y[i]);
        av->AccumGrad(std::move(ga));
      },
      name);
}

}  // namespace

// The scalar forward formulas live in tensor/forward_ops.h so the grad-free
// inference engine evaluates the exact same expressions.
VarPtr Relu(const VarPtr& a) {
  return Pointwise(
      a, [](float x) { return ReluScalar(x); },
      [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; }, "relu");
}

VarPtr LeakyRelu(const VarPtr& a, float negative_slope) {
  return Pointwise(
      a,
      [negative_slope](float x) { return LeakyReluScalar(x, negative_slope); },
      [negative_slope](float x, float) {
        return x > 0.0f ? 1.0f : negative_slope;
      },
      "leaky_relu");
}

VarPtr Sigmoid(const VarPtr& a) {
  return Pointwise(
      a, [](float x) { return kern::StableSigmoid(x); },
      [](float, float y) { return y * (1.0f - y); }, "sigmoid");
}

VarPtr Tanh(const VarPtr& a) {
  return Pointwise(
      a, [](float x) { return std::tanh(x); },
      [](float, float y) { return 1.0f - y * y; }, "tanh");
}

VarPtr SumAll(const VarPtr& a) {
  Tensor out(1, 1);
  out.at(0, 0) = static_cast<float>(a->value.Sum());
  VarPtr av = a;
  return MakeOp(
      std::move(out), {a},
      [av](Variable* self) {
        if (!av->requires_grad) return;
        const float g = self->grad.at(0, 0);
        Tensor ga = Tensor::Uninit(av->rows(), av->cols());
        ga.Fill(g);
        av->AccumGrad(std::move(ga));
      },
      "sum_all");
}

VarPtr MeanAll(const VarPtr& a) {
  const int64_t n = a->value.size();
  UV_CHECK_GT(n, 0);
  return ScalarMul(SumAll(a), 1.0f / static_cast<float>(n));
}

}  // namespace uv::ag
