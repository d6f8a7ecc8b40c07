#include "autograd/gated_mlp.h"

#include <algorithm>
#include <cstring>

#include "tensor/forward_ops.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"

namespace uv::ag {

int GatedMlpFilterSize(int d_in, int d_hidden) {
  return uv::GatedMlpFilterSize(d_in, d_hidden);
}

VarPtr GatedMlp(const VarPtr& x, const VarPtr& context, const VarPtr& w_f,
                const VarPtr& b_f, const VarPtr& w1, const VarPtr& b1,
                const VarPtr& w2, const VarPtr& b2,
                const std::vector<int>* rows) {
  const int d_in = x->cols();
  const int d_hidden = w1->cols();

  // Shared forward (tensor/forward_ops.cc) validates every shape; the
  // hidden activations are the only state the backward pass keeps.
  Tensor out;
  Tensor hidden;
  GatedMlpTile tile;
  uv::GatedMlpForward(x->value, context->value, w_f->value, b_f->value,
                      w1->value, b1->value, w2->value, b2->value, &tile, &out,
                      &hidden, rows);

  VarPtr xv = x, cv = context, wfv = w_f, bfv = b_f;
  VarPtr w1v = w1, b1v = b1, w2v = w2, b2v = b2;
  return MakeOp(
      std::move(out), {x, context, w_f, b_f, w1, b1, w2, b2},
      [xv, cv, wfv, bfv, w1v, b1v, w2v, b2v, hidden = std::move(hidden), d_in,
       d_hidden](Variable* self) {
        const int n = xv->rows();
        const int p = wfv->cols();
        const int context_dim = cv->cols();
        // Filter row offsets for each parameter block.
        const int off_b1 = d_in * d_hidden;
        const int off_w2 = off_b1 + d_hidden;
        const int off_b2 = off_w2 + d_hidden;
        Tensor* gx = xv->requires_grad ? &xv->EnsureGrad() : nullptr;
        Tensor* gc = cv->requires_grad ? &cv->EnsureGrad() : nullptr;
        Tensor* gwf = wfv->requires_grad ? &wfv->EnsureGrad() : nullptr;
        Tensor* gbf = bfv->requires_grad ? &bfv->EnsureGrad() : nullptr;
        Tensor* gw1 = w1v->requires_grad ? &w1v->EnsureGrad() : nullptr;
        Tensor* gb1 = b1v->requires_grad ? &b1v->EnsureGrad() : nullptr;
        Tensor* gw2 = w2v->requires_grad ? &w2v->EnsureGrad() : nullptr;
        Tensor* gb2 = b2v->requires_grad ? &b2v->EnsureGrad() : nullptr;
        const bool filter_grad = gc != nullptr || gwf != nullptr ||
                                 gbf != nullptr;
        const float* w1d = w1v->value.data();
        const float* b1d = b1v->value.data();
        const float* w2d = w2v->value.data();
        const float b2s = b2v->value[0];

        GatedMlpTile tile;
        Tensor gf;       // Filter gradient of the tile's live rows.
        Tensor gc_rows;  // Their context-gradient rows.
        Tensor dz(1, d_hidden);
        int live[kGatedMlpTileRows];
        for (int r0 = 0; r0 < n; r0 += kGatedMlpTileRows) {
          // Rows with a zero upstream gradient (every row outside the
          // loss) contribute exactly zero to every gradient: skip them.
          const int r1 = std::min(n, r0 + kGatedMlpTileRows);
          int num_live = 0;
          for (int i = r0; i < r1; ++i) {
            if (self->grad[i] != 0.0f) live[num_live++] = i;
          }
          if (num_live == 0) continue;
          tile.context.ResizeUninit(num_live, context_dim);
          for (int j = 0; j < num_live; ++j) {
            std::memcpy(tile.context.row(j), cv->value.row(live[j]),
                        sizeof(float) * static_cast<size_t>(context_dim));
          }
          GatedMlpFilterTile(wfv->value, bfv->value, &tile);
          if (filter_grad) {
            gf.ResizeUninit(num_live, p);
            gf.Zero();
          }

          for (int j = 0; j < num_live; ++j) {
            const int i = live[j];
            const float d = self->grad[i];
            const float* xi = xv->value.row(i);
            const float* fi = tile.filter.row(j);
            const float* hi = hidden.row(i);
            float* gfi = filter_grad ? gf.row(j) : nullptr;

            // Output layer.
            if (gb2 != nullptr) (*gb2)[0] += d * fi[off_b2];
            if (gfi != nullptr) gfi[off_b2] += d * b2s;
            for (int c = 0; c < d_hidden; ++c) {
              const float w2c = w2d[c];
              const float f2c = fi[off_w2 + c];
              if (gw2 != nullptr) (*gw2)[c] += d * hi[c] * f2c;
              if (gfi != nullptr) gfi[off_w2 + c] += d * hi[c] * w2c;
              // relu': hidden stores relu(z), positive iff z > 0.
              const float da1 = d * w2c * f2c;
              dz[c] = hi[c] > 0.0f ? da1 : 0.0f;
            }

            // Hidden layer.
            for (int c = 0; c < d_hidden; ++c) {
              const float dzc = dz[c];
              if (dzc == 0.0f) continue;
              if (gb1 != nullptr) (*gb1)[c] += dzc * fi[off_b1 + c];
              if (gfi != nullptr) gfi[off_b1 + c] += dzc * b1d[c];
            }
            for (int r = 0; r < d_in; ++r) {
              const float xr = xi[r];
              float dx_acc = 0.0f;
              const float* w1row = w1d + r * d_hidden;
              const float* firow = fi + r * d_hidden;
              float* gw1row = gw1 ? gw1->row(r) : nullptr;
              float* gfirow = gfi ? gfi + r * d_hidden : nullptr;
              for (int c = 0; c < d_hidden; ++c) {
                const float dzc = dz[c];
                if (dzc == 0.0f) continue;
                if (gw1row != nullptr) gw1row[c] += dzc * xr * firow[c];
                if (gfirow != nullptr) gfirow[c] += dzc * xr * w1row[c];
                dx_acc += dzc * w1row[c] * firow[c];
              }
              if (gx != nullptr) gx->row(i)[r] += dx_acc;
            }
          }
          if (!filter_grad) continue;

          // Through the filter's sigmoid: sigmoid' = y * (1 - y).
          float* g = gf.data();
          const float* y = tile.filter.data();
          for (int64_t k = 0; k < gf.size(); ++k) {
            g[k] = g[k] * y[k] * (1.0f - y[k]);
          }
          if (gc != nullptr) {
            gc_rows.ResizeUninit(num_live, context_dim);
            for (int j = 0; j < num_live; ++j) {
              std::memcpy(gc_rows.row(j), gc->row(live[j]),
                          sizeof(float) * static_cast<size_t>(context_dim));
            }
            Gemm(false, true, 1.0f, gf, wfv->value, 1.0f, &gc_rows);
            for (int j = 0; j < num_live; ++j) {
              std::memcpy(gc->row(live[j]), gc_rows.row(j),
                          sizeof(float) * static_cast<size_t>(context_dim));
            }
          }
          // One tile is one K block of the whole-matrix context^T * gf.
          if (gwf != nullptr) {
            Gemm(true, false, 1.0f, tile.context, gf, 1.0f, gwf);
          }
          if (gbf != nullptr) {
            float* gbd = gbf->data();
            for (int j = 0; j < num_live; ++j) {
              const float* gj = gf.row(j);
              for (int c = 0; c < p; ++c) gbd[c] += gj[c];
            }
          }
        }
      },
      "gated_mlp");
}

}  // namespace uv::ag
