#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "autograd/gated_mlp.h"
#include "autograd/grad_check.h"
#include "autograd/ops.h"
#include "util/rng.h"

namespace uv::ag {
namespace {

Tensor RandomTensor(int r, int c, uint64_t seed, float scale = 1.0f) {
  Rng rng(seed);
  Tensor t(r, c);
  t.RandomNormal(&rng, scale);
  return t;
}

// ------------------------------ BCE ----------------------------------------

TEST(BceTest, MatchesClosedForm) {
  // loss(z, y) = max(z,0) - z*y + log(1+exp(-|z|)).
  auto z = MakeConst(Tensor(2, 1, {0.8f, -1.2f}));
  Tensor y(2, 1, {1.0f, 0.0f});
  auto loss = BceWithLogits(z, y, nullptr);
  const double l0 = 0.8 - 0.8 + std::log1p(std::exp(-0.8));
  const double l1 = 0.0 - 0.0 + std::log1p(std::exp(-1.2));
  EXPECT_NEAR(loss->value.at(0, 0), (l0 + l1) / 2.0, 1e-6);
}

TEST(BceTest, PerfectPredictionNearZero) {
  auto z = MakeConst(Tensor(2, 1, {30.0f, -30.0f}));
  Tensor y(2, 1, {1.0f, 0.0f});
  EXPECT_NEAR(BceWithLogits(z, y, nullptr)->value.at(0, 0), 0.0, 1e-6);
}

TEST(BceTest, ExtremeLogitsStayFinite) {
  auto z = MakeParam(Tensor(2, 1, {2000.0f, -2000.0f}));
  Tensor y(2, 1, {0.0f, 1.0f});
  auto loss = BceWithLogits(z, y, nullptr);
  EXPECT_FALSE(loss->value.HasNonFinite());
  Backward(loss);
  EXPECT_FALSE(z->grad.HasNonFinite());
}

TEST(BceTest, GradientIsSigmoidMinusLabel) {
  auto z = MakeParam(Tensor(1, 1, {0.5f}));
  Tensor y(1, 1, {1.0f});
  Backward(BceWithLogits(z, y, nullptr));
  const double p = 1.0 / (1.0 + std::exp(-0.5));
  EXPECT_NEAR(z->grad.at(0, 0), p - 1.0, 1e-6);
}

TEST(BceTest, SampleWeightsShiftTheLoss) {
  auto z = MakeConst(Tensor(2, 1, {1.0f, 1.0f}));
  Tensor y(2, 1, {1.0f, 0.0f});
  Tensor w_pos(2, 1, {10.0f, 1.0f});
  // Up-weighting the already-correct positive lowers the weighted mean loss.
  const float plain = BceWithLogits(z, y, nullptr)->value.at(0, 0);
  const float weighted = BceWithLogits(z, y, &w_pos)->value.at(0, 0);
  EXPECT_LT(weighted, plain);
}

TEST(BceTest, GradCheck) {
  auto z = MakeParam(RandomTensor(6, 1, 31));
  Tensor y(6, 1);
  for (int i = 0; i < 6; ++i) y.at(i, 0) = i % 2 ? 1.0f : 0.0f;
  Tensor w(6, 1);
  for (int i = 0; i < 6; ++i) w.at(i, 0) = 1.0f + i * 0.5f;
  auto result =
      CheckGradients({z}, [&]() { return BceWithLogits(z, y, &w); });
  EXPECT_TRUE(result.ok) << result.detail;
}

// --------------------------- PU rank loss ----------------------------------

TEST(PuRankLossTest, PerfectSeparationByMarginOne) {
  // s_pos - s_neg = 1 makes every pair term (1 - 1)^2 = 0.
  auto s = MakeConst(Tensor(3, 1, {1.0f, 0.0f, 0.0f}));
  auto loss = PuRankLoss(s, {0}, {1, 2});
  EXPECT_NEAR(loss->value.at(0, 0), 0.0, 1e-8);
}

TEST(PuRankLossTest, EqualScoresGiveUnitLoss) {
  auto s = MakeConst(Tensor(2, 1, {0.5f, 0.5f}));
  auto loss = PuRankLoss(s, {0}, {1});
  EXPECT_NEAR(loss->value.at(0, 0), 1.0, 1e-6);
}

TEST(PuRankLossTest, EmptyPositivesIsZeroWithNoGrad) {
  auto s = MakeParam(Tensor(3, 1, {0.1f, 0.2f, 0.3f}));
  auto loss = PuRankLoss(s, {}, {0, 1, 2});
  EXPECT_FLOAT_EQ(loss->value.at(0, 0), 0.0f);
  Backward(loss);
  // No pairs -> no gradient contribution.
  if (!s->grad.empty()) {
    EXPECT_FLOAT_EQ(static_cast<float>(s->grad.Norm()), 0.0f);
  }
}

TEST(PuRankLossTest, GradCheck) {
  auto s = MakeParam(RandomTensor(5, 1, 33));
  auto result = CheckGradients(
      {s}, [&]() { return PuRankLoss(s, {0, 2}, {1, 3, 4}); });
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(PuRankLossTest, DescendingOnLossSeparatesScores) {
  // A few SGD steps should push positive scores above unlabeled ones.
  auto s = MakeParam(Tensor(4, 1, {0.0f, 0.0f, 0.0f, 0.0f}));
  for (int it = 0; it < 200; ++it) {
    ZeroGrads({s});
    auto loss = PuRankLoss(s, {0, 1}, {2, 3});
    Backward(loss);
    for (int i = 0; i < 4; ++i) {
      s->value.at(i, 0) -= 0.05f * s->grad.at(i, 0);
    }
  }
  EXPECT_GT(s->value.at(0, 0), s->value.at(2, 0) + 0.5f);
  EXPECT_GT(s->value.at(1, 0), s->value.at(3, 0) + 0.5f);
}

// ----------------------------- GatedMlp -------------------------------------

TEST(GatedMlpTest, FilterSize) {
  EXPECT_EQ(GatedMlpFilterSize(4, 3), 4 * 3 + 3 + 3 + 1);
}

// Gate inputs whose filter is sigmoid(bias) on every row: W_f = 0, so a
// bias of +-1000 saturates the filter to exactly 1 or 0.
struct GateInputs {
  VarPtr context, w_f, b_f;
};

GateInputs SaturatedGate(int n, int p, float bias) {
  Tensor b(1, p);
  b.Fill(bias);
  return {MakeConst(RandomTensor(n, 2, 39)), MakeConst(Tensor(2, p)),
          MakeConst(std::move(b))};
}

// With an all-ones filter the gated MLP must equal the plain master MLP.
TEST(GatedMlpTest, UnitFilterEqualsMasterMlp) {
  const int n = 5, d_in = 4, d_h = 3;
  auto x = MakeConst(RandomTensor(n, d_in, 40));
  auto w1 = MakeConst(RandomTensor(d_in, d_h, 41));
  auto b1 = MakeConst(RandomTensor(1, d_h, 42));
  auto w2 = MakeConst(RandomTensor(d_h, 1, 43));
  auto b2 = MakeConst(RandomTensor(1, 1, 44));
  const GateInputs g =
      SaturatedGate(n, GatedMlpFilterSize(d_in, d_h), 1000.0f);
  auto gated = GatedMlp(x, g.context, g.w_f, g.b_f, w1, b1, w2, b2);
  auto plain = AddRowBroadcast(
      MatMul(Relu(AddRowBroadcast(MatMul(x, w1), b1)), w2), b2);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(gated->value.at(i, 0), plain->value.at(i, 0), 1e-5f);
  }
}

// A zero filter wipes every parameter: all logits are exactly zero.
TEST(GatedMlpTest, ZeroFilterGivesZeroLogits) {
  const int n = 3, d_in = 4, d_h = 2;
  auto x = MakeConst(RandomTensor(n, d_in, 45));
  auto w1 = MakeConst(RandomTensor(d_in, d_h, 46));
  auto b1 = MakeConst(RandomTensor(1, d_h, 47));
  auto w2 = MakeConst(RandomTensor(d_h, 1, 48));
  auto b2 = MakeConst(RandomTensor(1, 1, 49));
  const GateInputs g =
      SaturatedGate(n, GatedMlpFilterSize(d_in, d_h), -1000.0f);
  auto gated = GatedMlp(x, g.context, g.w_f, g.b_f, w1, b1, w2, b2);
  for (int i = 0; i < n; ++i) EXPECT_FLOAT_EQ(gated->value.at(i, 0), 0.0f);
}

// Different context rows derive genuinely different slave models: with a
// saturated bias of 1000 and W_f = -1000, context 0 gives the all-ones
// filter and context 1 the all-0.5 filter.
TEST(GatedMlpTest, PerRegionFiltersDiffer) {
  const int d_in = 3, d_h = 2;
  const int p = GatedMlpFilterSize(d_in, d_h);
  Tensor x(2, d_in, {1, 1, 1, 1, 1, 1});  // Identical inputs.
  Tensor w_f(1, p);
  w_f.Fill(-1000.0f);
  Tensor b_f(1, p);
  b_f.Fill(1000.0f);
  auto w1 = MakeConst(RandomTensor(d_in, d_h, 50));
  auto b1 = MakeConst(RandomTensor(1, d_h, 51));
  auto w2 = MakeConst(RandomTensor(d_h, 1, 52));
  auto b2 = MakeConst(RandomTensor(1, 1, 53));
  auto out = GatedMlp(MakeConst(x), MakeConst(Tensor(2, 1, {0.0f, 1.0f})),
                      MakeConst(w_f), MakeConst(b_f), w1, b1, w2, b2);
  EXPECT_NE(out->value.at(0, 0), out->value.at(1, 0));
}

TEST(GatedMlpTest, GradCheckAllInputs) {
  const int n = 3, d_in = 3, d_h = 2, c = 2;
  const int p = GatedMlpFilterSize(d_in, d_h);
  auto x = MakeParam(RandomTensor(n, d_in, 60));
  auto context = MakeParam(RandomTensor(n, c, 66));
  // Small filter weights keep the filter near sigmoid(b_f), inside (0, 1).
  auto w_f = MakeParam(RandomTensor(c, p, 67, 0.3f));
  auto b_f = MakeParam(RandomTensor(1, p, 68, 0.5f));
  auto w1 = MakeParam(RandomTensor(d_in, d_h, 62));
  auto b1 = MakeParam(RandomTensor(1, d_h, 63));
  auto w2 = MakeParam(RandomTensor(d_h, 1, 64));
  auto b2 = MakeParam(RandomTensor(1, 1, 65));
  auto result =
      CheckGradients({x, context, w_f, b_f, w1, b1, w2, b2}, [&]() {
        auto y = GatedMlp(x, context, w_f, b_f, w1, b1, w2, b2);
        return SumAll(Mul(y, y));
      });
  EXPECT_TRUE(result.ok) << result.detail;
}

// The unfused chain the fused op replaces: the filter as a whole N x P
// DenseBiasAct sigmoid output, then the per-row gated MLP over it, with its
// backward walking every row in ascending order and accumulating every
// gradient from zero (filter gradient included).
VarPtr ReferenceGatedMlp(const VarPtr& x, const VarPtr& filter,
                         const VarPtr& w1, const VarPtr& b1, const VarPtr& w2,
                         const VarPtr& b2) {
  const int n = x->rows(), d_in = x->cols(), d_h = w1->cols();
  const int off_b1 = d_in * d_h, off_w2 = off_b1 + d_h, off_b2 = off_w2 + d_h;
  Tensor out(n, 1);
  Tensor hidden(n, d_h);
  for (int i = 0; i < n; ++i) {
    const float* fi = filter->value.row(i);
    for (int c = 0; c < d_h; ++c) {
      float z = b1->value.at(0, c) * fi[off_b1 + c];
      for (int r = 0; r < d_in; ++r) {
        z += x->value.at(i, r) * w1->value.at(r, c) * fi[r * d_h + c];
      }
      hidden.at(i, c) = z > 0.0f ? z : 0.0f;
    }
    float logit = b2->value.at(0, 0) * fi[off_b2];
    for (int c = 0; c < d_h; ++c) {
      logit += hidden.at(i, c) * w2->value.at(c, 0) * fi[off_w2 + c];
    }
    out.at(i, 0) = logit;
  }
  return MakeOp(
      std::move(out), {x, filter, w1, b1, w2, b2},
      [x, filter, w1, b1, w2, b2, hidden, d_in, d_h, off_b1, off_w2,
       off_b2](Variable* self) {
        Tensor& gx = x->EnsureGrad();
        Tensor& gf = filter->EnsureGrad();
        Tensor& gw1 = w1->EnsureGrad();
        Tensor& gb1 = b1->EnsureGrad();
        Tensor& gw2 = w2->EnsureGrad();
        Tensor& gb2 = b2->EnsureGrad();
        std::vector<float> dz(d_h);
        for (int i = 0; i < x->rows(); ++i) {
          const float d = self->grad.at(i, 0);
          if (d == 0.0f) continue;
          const float* fi = filter->value.row(i);
          float* gfi = gf.row(i);
          gb2.at(0, 0) += d * fi[off_b2];
          gfi[off_b2] += d * b2->value.at(0, 0);
          for (int c = 0; c < d_h; ++c) {
            const float w2c = w2->value.at(c, 0);
            const float f2c = fi[off_w2 + c];
            gw2.at(c, 0) += d * hidden.at(i, c) * f2c;
            gfi[off_w2 + c] += d * hidden.at(i, c) * w2c;
            const float da1 = d * w2c * f2c;
            dz[c] = hidden.at(i, c) > 0.0f ? da1 : 0.0f;
          }
          for (int c = 0; c < d_h; ++c) {
            if (dz[c] == 0.0f) continue;
            gb1.at(0, c) += dz[c] * fi[off_b1 + c];
            gfi[off_b1 + c] += dz[c] * b1->value.at(0, c);
          }
          for (int r = 0; r < d_in; ++r) {
            const float xr = x->value.at(i, r);
            float dx_acc = 0.0f;
            for (int c = 0; c < d_h; ++c) {
              if (dz[c] == 0.0f) continue;
              const float w1rc = w1->value.at(r, c);
              const float f1rc = fi[r * d_h + c];
              gw1.at(r, c) += dz[c] * xr * f1rc;
              gfi[r * d_h + c] += dz[c] * xr * w1rc;
              dx_acc += dz[c] * w1rc * f1rc;
            }
            gx.at(i, r) += dx_acc;
          }
        }
      },
      "reference_gated_mlp");
}

// Bitwise equality, except on builds targeting FMA hardware (UV_NATIVE),
// where the compiler may fuse a*b + c in the library and in the reference
// above independently, so only rounding-level differences are allowed.
void ExpectSameBits(const Tensor& got, const Tensor& want, const char* what) {
  ASSERT_TRUE(got.SameShape(want)) << what;
#ifdef __FMA__
  for (int64_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-5f * (1.0f + std::fabs(want[i])))
        << what << " element " << i;
  }
#else
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        static_cast<size_t>(want.size()) * sizeof(float)),
            0)
      << what;
#endif
}

// The fused op reproduces the unfused chain bit for bit: 600 rows are two
// full filter tiles and a partial one, P = 313 and N = 600 both span more
// than one GEMM K block, and a third of the rows (plus a run of 120) get a
// zero upstream gradient, so the backward skips them inside live tiles.
TEST(GatedMlpTest, MatchesUnfusedChainBitForBit) {
  const int n = 600, d_in = 24, d_h = 12, c = 6;
  const int p = GatedMlpFilterSize(d_in, d_h);
  Tensor weights = RandomTensor(n, 1, 70);
  for (int i = 0; i < n; ++i) {
    if (i % 3 == 0 || (i >= 300 && i < 420)) weights.at(i, 0) = 0.0f;
  }
  const std::vector<Tensor> init = {
      RandomTensor(n, d_in, 71),       RandomTensor(n, c, 72),
      RandomTensor(c, p, 73, 0.5f),    RandomTensor(1, p, 74),
      RandomTensor(d_in, d_h, 75),     RandomTensor(1, d_h, 76),
      RandomTensor(d_h, 1, 77),        RandomTensor(1, 1, 78)};
  std::vector<VarPtr> fused, unfused;
  for (const Tensor& t : init) {
    fused.push_back(MakeParam(t));
    unfused.push_back(MakeParam(t));
  }
  const VarPtr w = MakeConst(weights);

  auto y = GatedMlp(fused[0], fused[1], fused[2], fused[3], fused[4],
                    fused[5], fused[6], fused[7]);
  Backward(SumAll(Mul(y, w)));
  auto filter = DenseBiasAct(unfused[1], unfused[2], unfused[3],
                             kern::Activation::kSigmoid);
  auto y_ref = ReferenceGatedMlp(unfused[0], filter, unfused[4], unfused[5],
                                 unfused[6], unfused[7]);
  Backward(SumAll(Mul(y_ref, w)));

  ExpectSameBits(y->value, y_ref->value, "logits");
  const char* names[] = {"x", "context", "w_f", "b_f", "w1", "b1", "w2", "b2"};
  for (size_t k = 0; k < init.size(); ++k) {
    ExpectSameBits(fused[k]->grad, unfused[k]->grad, names[k]);
  }
}

}  // namespace
}  // namespace uv::ag
