#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "autograd/grad_check.h"
#include "autograd/ops.h"
#include "autograd/variable.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace uv::ag {
namespace {

Tensor RandomTensor(int r, int c, uint64_t seed, float scale = 1.0f) {
  Rng rng(seed);
  Tensor t(r, c);
  t.RandomNormal(&rng, scale);
  return t;
}

// Sums all elements after squaring, a non-trivial scalar readout that keeps
// every gradient path exercised.
VarPtr SquaredReadout(const VarPtr& x) { return SumAll(Mul(x, x)); }

TEST(VariableTest, LeafFlags) {
  auto p = MakeParam(Tensor(2, 2));
  auto c = MakeConst(Tensor(2, 2));
  EXPECT_TRUE(p->requires_grad);
  EXPECT_FALSE(c->requires_grad);
  EXPECT_STREQ(p->op_name, "leaf");
}

TEST(VariableTest, OpInheritsRequiresGrad) {
  auto p = MakeParam(RandomTensor(2, 2, 1));
  auto c = MakeConst(RandomTensor(2, 2, 2));
  EXPECT_TRUE(Add(p, c)->requires_grad);
  EXPECT_FALSE(Add(c, c)->requires_grad);
}

TEST(VariableTest, AccumGradAdds) {
  auto p = MakeParam(Tensor(1, 2));
  Tensor g(1, 2, {1, 2});
  p->AccumGrad(g);
  p->AccumGrad(g);
  EXPECT_FLOAT_EQ(p->grad.at(0, 1), 4.0f);
}

TEST(BackwardTest, SimpleChain) {
  // loss = sum((2x)^2) = 4*sum(x^2) => dloss/dx = 8x.
  auto x = MakeParam(Tensor(1, 3, {1, 2, 3}));
  auto loss = SumAll(Mul(ScalarMul(x, 2.0f), ScalarMul(x, 2.0f)));
  Backward(loss);
  EXPECT_FLOAT_EQ(x->grad.at(0, 0), 8.0f);
  EXPECT_FLOAT_EQ(x->grad.at(0, 2), 24.0f);
}

TEST(BackwardTest, DiamondGraphAccumulates) {
  // y = x + x => dy/dx = 2 everywhere.
  auto x = MakeParam(Tensor(2, 2, {1, 2, 3, 4}));
  auto loss = SumAll(Add(x, x));
  Backward(loss);
  for (int64_t i = 0; i < x->grad.size(); ++i) {
    EXPECT_FLOAT_EQ(x->grad[i], 2.0f);
  }
}

TEST(BackwardTest, SharedSubexpressionVisitedOnce) {
  auto x = MakeParam(Tensor(1, 2, {3, 4}));
  auto h = ScalarMul(x, 2.0f);
  auto loss = SumAll(Add(h, h));  // d/dx = 4.
  Backward(loss);
  EXPECT_FLOAT_EQ(x->grad.at(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(x->grad.at(0, 1), 4.0f);
}

TEST(BackwardTest, ZeroGrads) {
  auto x = MakeParam(Tensor(1, 1, {2}));
  Backward(SquaredReadout(x));
  EXPECT_NE(x->grad.at(0, 0), 0.0f);
  ZeroGrads({x});
  EXPECT_FLOAT_EQ(x->grad.at(0, 0), 0.0f);
}

// ---------------- Finite-difference checks per op --------------------------

struct OpCase {
  const char* name;
  std::function<VarPtr(const std::vector<VarPtr>&)> apply;
  std::vector<std::pair<int, int>> shapes;  // Parameter shapes.
};

class DenseOpGradTest : public ::testing::TestWithParam<int> {};

const std::vector<OpCase>& Cases() {
  static const auto* cases = new std::vector<OpCase>{
      {"matmul",
       [](const std::vector<VarPtr>& p) {
         return SquaredReadout(MatMul(p[0], p[1]));
       },
       {{3, 4}, {4, 2}}},
      {"add",
       [](const std::vector<VarPtr>& p) {
         return SquaredReadout(Add(p[0], p[1]));
       },
       {{3, 3}, {3, 3}}},
      {"sub",
       [](const std::vector<VarPtr>& p) {
         return SquaredReadout(Sub(p[0], p[1]));
       },
       {{2, 4}, {2, 4}}},
      {"mul",
       [](const std::vector<VarPtr>& p) {
         return SquaredReadout(Mul(p[0], p[1]));
       },
       {{3, 2}, {3, 2}}},
      {"scalar_mul",
       [](const std::vector<VarPtr>& p) {
         return SquaredReadout(ScalarMul(p[0], -1.7f));
       },
       {{2, 3}}},
      {"add_row_broadcast",
       [](const std::vector<VarPtr>& p) {
         return SquaredReadout(AddRowBroadcast(p[0], p[1]));
       },
       {{4, 3}, {1, 3}}},
      {"mul_col_broadcast",
       [](const std::vector<VarPtr>& p) {
         return SquaredReadout(MulColBroadcast(p[0], p[1]));
       },
       {{4, 3}, {4, 1}}},
      {"mul_row_vector",
       [](const std::vector<VarPtr>& p) {
         return SquaredReadout(MulRowVector(p[0], p[1]));
       },
       {{4, 3}, {1, 3}}},
      {"transpose",
       [](const std::vector<VarPtr>& p) {
         return SquaredReadout(Transpose(p[0]));
       },
       {{3, 5}}},
      {"concat_cols",
       [](const std::vector<VarPtr>& p) {
         return SquaredReadout(ConcatCols(p[0], p[1]));
       },
       {{3, 2}, {3, 4}}},
      {"concat_rows",
       [](const std::vector<VarPtr>& p) {
         return SquaredReadout(ConcatRows(p[0], p[1]));
       },
       {{2, 3}, {4, 3}}},
      {"slice_cols",
       [](const std::vector<VarPtr>& p) {
         return SquaredReadout(SliceCols(p[0], 1, 3));
       },
       {{3, 5}}},
      {"row_softmax",
       [](const std::vector<VarPtr>& p) {
         return SquaredReadout(RowSoftmax(p[0], 0.7f));
       },
       {{3, 4}}},
      {"sigmoid",
       [](const std::vector<VarPtr>& p) {
         return SquaredReadout(Sigmoid(p[0]));
       },
       {{3, 3}}},
      {"tanh",
       [](const std::vector<VarPtr>& p) { return SquaredReadout(Tanh(p[0])); },
       {{3, 3}}},
      {"leaky_relu",
       [](const std::vector<VarPtr>& p) {
         return SquaredReadout(LeakyRelu(p[0], 0.2f));
       },
       {{4, 4}}},
      {"mean_all",
       [](const std::vector<VarPtr>& p) {
         auto m = MeanAll(Mul(p[0], p[0]));
         return m;
       },
       {{3, 4}}},
  };
  return *cases;
}

TEST_P(DenseOpGradTest, MatchesFiniteDifferences) {
  const OpCase& c = Cases()[GetParam()];
  std::vector<VarPtr> params;
  for (size_t i = 0; i < c.shapes.size(); ++i) {
    // Offset from zero so ReLU-style kinks are unlikely at the test point.
    Tensor t = RandomTensor(c.shapes[i].first, c.shapes[i].second, 100 + i);
    for (int64_t j = 0; j < t.size(); ++j) {
      if (std::fabs(t[j]) < 0.05f) t[j] += 0.1f;
    }
    params.push_back(MakeParam(std::move(t)));
  }
  auto result = CheckGradients(params, [&]() { return c.apply(params); });
  EXPECT_TRUE(result.ok) << c.name << ": " << result.detail
                         << " (max rel err " << result.max_rel_error << ")";
}

INSTANTIATE_TEST_SUITE_P(AllOps, DenseOpGradTest,
                         ::testing::Range(0, static_cast<int>(Cases().size())),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return Cases()[info.param].name;
                         });

TEST(DenseOpsTest, ReluForward) {
  auto x = MakeConst(Tensor(1, 4, {-2, -0.5f, 0.5f, 2}));
  auto y = Relu(x);
  EXPECT_FLOAT_EQ(y->value.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(y->value.at(0, 3), 2.0f);
}

TEST(DenseOpsTest, SigmoidRange) {
  auto x = MakeConst(RandomTensor(5, 5, 7, 10.0f));
  auto y = Sigmoid(x);
  for (int64_t i = 0; i < y->value.size(); ++i) {
    // Float rounding may saturate to exactly 0 or 1 for huge |x|.
    EXPECT_GE(y->value[i], 0.0f);
    EXPECT_LE(y->value[i], 1.0f);
  }
  EXPECT_FALSE(y->value.HasNonFinite());
}

TEST(DenseOpsTest, CompositionDeepChainGradCheck) {
  auto w1 = MakeParam(RandomTensor(3, 4, 1, 0.5f));
  auto w2 = MakeParam(RandomTensor(4, 2, 2, 0.5f));
  auto b = MakeParam(RandomTensor(1, 2, 3, 0.5f));
  auto x = MakeConst(RandomTensor(5, 3, 4));
  auto build = [&]() {
    auto h = Tanh(MatMul(x, w1));
    auto o = Sigmoid(AddRowBroadcast(MatMul(h, w2), b));
    return SumAll(Mul(o, o));
  };
  auto result = CheckGradients({w1, w2, b}, build);
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(DenseOpsTest, DenseBiasActGradCheckAllActivations) {
  const kern::Activation acts[] = {
      kern::Activation::kNone, kern::Activation::kRelu,
      kern::Activation::kLeakyRelu, kern::Activation::kSigmoid};
  for (kern::Activation act : acts) {
    auto x = MakeParam(RandomTensor(5, 3, 21));
    auto w = MakeParam(RandomTensor(3, 4, 22, 0.5f));
    auto b = MakeParam(RandomTensor(1, 4, 23, 0.5f));
    // Nudge pre-activations away from the ReLU kink so finite differences
    // stay on one side of it.
    Tensor pre = Tensor::Uninit(5, 4);
    GemmBiasAct(false, false, 1.0f, x->value, w->value, 0.0f, &pre, &b->value,
                kern::Activation::kNone);
    for (int64_t i = 0; i < pre.size(); ++i) {
      if (std::fabs(pre[i]) < 0.05f) {
        b->value[i % 4] += 0.1f;
      }
    }
    auto build = [&]() {
      return SquaredReadout(DenseBiasAct(x, w, b, act, 0.2f));
    };
    auto result = CheckGradients({x, w, b}, build);
    EXPECT_TRUE(result.ok)
        << "act=" << static_cast<int>(act) << ": " << result.detail
        << " (max rel err " << result.max_rel_error << ")";
  }
}

TEST(DenseOpsTest, DenseBiasActForwardMatchesUnfusedOps) {
  auto x = MakeConst(RandomTensor(7, 5, 31));
  auto w = MakeConst(RandomTensor(5, 6, 32, 0.5f));
  auto b = MakeConst(RandomTensor(1, 6, 33, 0.5f));
  auto fused = DenseBiasAct(x, w, b, kern::Activation::kRelu);
  auto unfused = Relu(AddRowBroadcast(MatMul(x, w), b));
  ASSERT_EQ(fused->value.size(), unfused->value.size());
  for (int64_t i = 0; i < fused->value.size(); ++i) {
    EXPECT_EQ(fused->value[i], unfused->value[i]) << "index " << i;
  }
}

TEST(DenseOpsTest, ConstInputsReceiveNoGrad) {
  auto c = MakeConst(RandomTensor(2, 2, 9));
  auto p = MakeParam(RandomTensor(2, 2, 10));
  auto loss = SumAll(Mul(c, p));
  Backward(loss);
  EXPECT_TRUE(c->grad.empty());
  EXPECT_FALSE(p->grad.empty());
}

// MatMul, DenseBiasAct and EdgeAttention over parameters. Every call draws
// the same values, so grad-mode and no-grad outputs can be compared.
std::vector<VarPtr> OpsOverParams() {
  auto x = MakeParam(RandomTensor(3, 4, 41));
  auto w = MakeParam(RandomTensor(4, 2, 42));
  auto b = MakeParam(RandomTensor(1, 2, 43));
  auto s_dst = MakeParam(RandomTensor(3, 1, 44));
  auto s_src = MakeParam(RandomTensor(3, 1, 45));
  // Three destinations with 2, 1 and 2 in-edges.
  auto offsets =
      std::make_shared<const std::vector<int>>(std::vector<int>{0, 2, 3, 5});
  auto src_ids = std::make_shared<const std::vector<int>>(
      std::vector<int>{0, 1, 2, 0, 2});
  auto dst_ids = std::make_shared<const std::vector<int>>(
      std::vector<int>{0, 0, 1, 2, 2});
  AttentionHeads head;
  head.Add(s_dst, s_src, x);
  return {MatMul(x, w), DenseBiasAct(x, w, b, kern::Activation::kRelu),
          EdgeAttention(head, src_ids, dst_ids, offsets, 0.2f)};
}

void ExpectConstant(const VarPtr& node) {
  EXPECT_FALSE(node->requires_grad) << node->op_name;
  EXPECT_TRUE(node->inputs.empty()) << node->op_name;
  EXPECT_FALSE(node->backward_fn) << node->op_name;
}

void ExpectRecorded(const VarPtr& node) {
  EXPECT_TRUE(node->requires_grad) << node->op_name;
  EXPECT_FALSE(node->inputs.empty()) << node->op_name;
  EXPECT_TRUE(node->backward_fn) << node->op_name;
}

TEST(NoGradScopeTest, OpsReturnConstantsWithGradModeValues) {
  const std::vector<VarPtr> recorded = OpsOverParams();
  std::vector<VarPtr> constants;
  {
    NoGradScope no_grad;
    EXPECT_FALSE(GradEnabled());
    constants = OpsOverParams();
  }
  EXPECT_TRUE(GradEnabled());
  ASSERT_EQ(constants.size(), recorded.size());
  for (size_t i = 0; i < recorded.size(); ++i) {
    ExpectRecorded(recorded[i]);
    ExpectConstant(constants[i]);
    const Tensor& a = recorded[i]->value;
    const Tensor& b = constants[i]->value;
    ASSERT_TRUE(a.SameShape(b)) << recorded[i]->op_name;
    EXPECT_EQ(std::memcmp(a.data(), b.data(), sizeof(float) * a.size()), 0)
        << recorded[i]->op_name;
  }
}

TEST(NoGradScopeTest, NestedScopesRestoreOuterMode) {
  {
    NoGradScope outer;
    {
      NoGradScope inner;
      EXPECT_FALSE(GradEnabled());
    }
    EXPECT_FALSE(GradEnabled());
    for (const VarPtr& node : OpsOverParams()) ExpectConstant(node);
  }
  EXPECT_TRUE(GradEnabled());
  for (const VarPtr& node : OpsOverParams()) ExpectRecorded(node);
}

// Folds train and score concurrently on pool threads, so a scope open on
// one thread must leave another thread's ops differentiable.
TEST(NoGradScopeTest, ScopeOnOneThreadLeavesOthersDifferentiable) {
  NoGradScope no_grad;
  bool other_enabled = false;
  std::vector<VarPtr> other_ops;
  Tensor other_grad;
  std::thread other([&] {
    other_enabled = GradEnabled();
    other_ops = OpsOverParams();
    auto w = MakeParam(RandomTensor(4, 2, 46));
    Backward(SquaredReadout(MatMul(MakeConst(RandomTensor(3, 4, 47)), w)));
    other_grad = w->grad;
  });
  other.join();
  EXPECT_TRUE(other_enabled);
  for (const VarPtr& node : other_ops) ExpectRecorded(node);
  ASSERT_FALSE(other_grad.empty());
  EXPECT_GT(other_grad.Norm(), 0.0);
  EXPECT_FALSE(GradEnabled());
  for (const VarPtr& node : OpsOverParams()) ExpectConstant(node);
}

}  // namespace
}  // namespace uv::ag
