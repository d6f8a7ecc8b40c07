// Heads in lanes and the matrix-vector GEMM: both must give exactly the
// bytes of the code paths they replace.
//
// - GemvTest: the n == 1 kernel entry against the packed GEMM, on every
//   available backend.
// - AttentionLanesLayerTest: MagaLayer and GatLayer, which run all heads
//   in one ag::EdgeAttention, against the per-head graph they replace
//   (one single-head op per head, heads concatenated per bank). After one
//   backward every parameter gradient and both input gradients must be
//   bit-equal, which pins the order in which the shared projections and
//   input rows accumulate their gradients.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "autograd/ops.h"
#include "graph/csr_graph.h"
#include "graph/grid.h"
#include "nn/gat.h"
#include "nn/graph_context.h"
#include "nn/maga.h"
#include "tensor/kernels/kernel_dispatch.h"
#include "util/rng.h"

namespace uv {
namespace {

Tensor RandomTensor(int r, int c, uint64_t seed) {
  Rng rng(seed);
  Tensor t(r, c);
  t.RandomNormal(&rng, 1.0f);
  return t;
}

void ExpectSameBytes(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), sizeof(float) * a.size()), 0);
}

TEST(GemvTest, MatchesPackedGemmBitForBit) {
  const kern::Backend was = kern::ActiveBackend();
  for (const kern::Backend backend :
       {kern::Backend::kScalar, kern::Backend::kAvx2}) {
    if (!kern::BackendAvailable(backend)) continue;
    kern::SetActiveBackend(backend);
    const kern::KernelDispatch& kt = kern::Active();
    SCOPED_TRACE(kt.name);
    uint64_t seed = 1;
    for (const int m : {1, 7, 8, 33, 1848}) {
      for (const int k : {1, 32, 255, 256, 257, 1848}) {
        const Tensor a = RandomTensor(m, k, ++seed);  // Read as k x m too.
        const Tensor b = RandomTensor(k, 1, ++seed);
        const Tensor c0 = RandomTensor(m, 1, ++seed);
        const Tensor bias = RandomTensor(1, 1, ++seed);
        for (const bool trans_a : {false, true}) {
          for (const bool trans_b : {false, true}) {
            for (const float beta : {0.0f, 1.0f}) {
              for (int epilogue = 0; epilogue < 5; ++epilogue) {
                SCOPED_TRACE(testing::Message()
                             << "m=" << m << " k=" << k << " ta=" << trans_a
                             << " tb=" << trans_b << " beta=" << beta
                             << " epilogue=" << epilogue);
                kern::GemmArgs args;
                args.m = m;
                args.n = 1;
                args.k = k;
                args.trans_a = trans_a;
                args.trans_b = trans_b;
                args.alpha = 0.75f;
                args.a = a.data();
                args.b = b.data();
                // Epilogue 0 has none; 1-4 add the bias, then no
                // activation, ReLU, LeakyReLU and sigmoid.
                if (epilogue > 0) args.bias = bias.data();
                args.act = static_cast<kern::Activation>(
                    epilogue > 0 ? epilogue - 1 : 0);
                args.leaky_slope = 0.2f;
                Tensor packed = beta == 0.0f ? Tensor(m, 1) : c0;
                Tensor gemv = packed;
                args.c = packed.data();
                kt.gemm(args);
                args.c = gemv.data();
                kt.gemv(args);
                ExpectSameBytes(packed, gemv);
              }
            }
          }
        }
      }
    }
  }
  kern::SetActiveBackend(was);
}

// A 6 x 5 grid's spatial-proximity edges with self loops, so segments have
// several edges and every source row feeds several of them.
nn::GraphContext GridContext() {
  const graph::GridSpec grid{6, 5, 128.0};
  return nn::GraphContext::FromCsr(graph::CsrGraph::FromEdges(
      static_cast<int>(grid.num_regions()),
      graph::BuildSpatialProximityEdges(grid), /*symmetrize=*/false,
      /*add_self_loops=*/true));
}

// What one head computed before heads became lanes: its projections and
// scores, then a single-head edge attention.
ag::VarPtr PerHead(const ag::VarPtr& w_dst, const ag::VarPtr& w_src,
                   const ag::VarPtr& a_dst, const ag::VarPtr& a_src,
                   bool shared, const ag::VarPtr& x_dst,
                   const ag::VarPtr& x_src, const nn::GraphContext& ctx) {
  ag::VarPtr h_dst = ag::MatMul(x_dst, w_dst);
  ag::VarPtr h_src =
      shared && x_dst.get() == x_src.get() ? h_dst : ag::MatMul(x_src, w_src);
  ag::AttentionHeads head;
  head.Add(ag::MatMul(h_dst, a_dst), ag::MatMul(h_src, a_src), h_src);
  return ag::EdgeAttention(head, ctx.src_ids, ctx.dst_ids, ctx.offsets,
                           nn::kAttentionSlope);
}

// A bank of `heads` heads whose parameters start at params[*next], each
// head's output concatenated onto the last one's.
ag::VarPtr PerHeadBank(const std::vector<ag::VarPtr>& params, size_t* next,
                       int heads, bool shared, const ag::VarPtr& x_dst,
                       const ag::VarPtr& x_src, const nn::GraphContext& ctx) {
  ag::VarPtr out;
  for (int h = 0; h < heads; ++h) {
    const ag::VarPtr w_dst = params[(*next)++];
    const ag::VarPtr w_src = shared ? w_dst : params[(*next)++];
    const ag::VarPtr a_dst = params[(*next)++];
    const ag::VarPtr a_src = params[(*next)++];
    ag::VarPtr o = PerHead(w_dst, w_src, a_dst, a_src, shared, x_dst, x_src,
                           ctx);
    out = out ? ag::ConcatCols(out, o) : o;
  }
  return out;
}

struct Grads {
  std::vector<Tensor> values;  // Outputs, then parameter and input grads.
};

// Runs `loss` once from empty gradients and collects `outputs`' values and
// the gradients of `params` and `inputs`.
Grads RunOnce(const std::vector<ag::VarPtr>& params,
              const std::vector<ag::VarPtr>& inputs,
              const std::function<std::vector<ag::VarPtr>()>& forward) {
  for (const auto& p : params) p->grad = Tensor();
  for (const auto& x : inputs) x->grad = Tensor();
  const std::vector<ag::VarPtr> outputs = forward();
  ag::VarPtr loss;
  uint64_t seed = 900;
  for (const auto& o : outputs) {
    ag::VarPtr term = ag::SumAll(ag::Mul(
        o, ag::MakeConst(RandomTensor(o->rows(), o->cols(), ++seed))));
    loss = loss ? ag::Add(loss, term) : term;
  }
  ag::Backward(loss);
  Grads g;
  for (const auto& o : outputs) g.values.push_back(o->value);
  for (const auto& p : params) g.values.push_back(p->grad);
  for (const auto& x : inputs) g.values.push_back(x->grad);
  return g;
}

void ExpectSameGrads(const Grads& a, const Grads& b) {
  ASSERT_EQ(a.values.size(), b.values.size());
  for (size_t i = 0; i < a.values.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "tensor " << i);
    ExpectSameBytes(a.values[i], b.values[i]);
  }
}

class AttentionLanesLayerTest : public ::testing::TestWithParam<int> {};

TEST_P(AttentionLanesLayerTest, MagaMatchesPerHeadGraphBitForBit) {
  const int heads = GetParam();
  const nn::GraphContext ctx = GridContext();
  const int n = ctx.num_nodes;
  for (const nn::AggKind agg : {nn::AggKind::kAttention, nn::AggKind::kSum,
                                nn::AggKind::kConcat}) {
    SCOPED_TRACE(testing::Message() << heads << " heads, agg "
                                    << static_cast<int>(agg));
    Rng rng(7);
    const nn::MagaLayer layer(6, 10, 4 * heads, heads, agg, &rng);
    const std::vector<ag::VarPtr> params = layer.Params();
    auto x_p = ag::MakeParam(RandomTensor(n, 6, 11));
    auto x_i = ag::MakeParam(RandomTensor(n, 10, 12));
    const Grads lanes = RunOnce(params, {x_p, x_i}, [&] {
      const nn::MagaLayer::Output out = layer.Forward(x_p, x_i, ctx);
      return std::vector<ag::VarPtr>{out.p, out.i};
    });
    // MagaLayer::Params lists intra_p, intra_i, inter_pi, inter_ip, then
    // the AGG queries; the per-head layer ran the banks in that order.
    const Grads per_head = RunOnce(params, {x_p, x_i}, [&] {
      size_t next = 0;
      auto pp = ag::Relu(PerHeadBank(params, &next, heads, true, x_p, x_p, ctx));
      auto ii = ag::Relu(PerHeadBank(params, &next, heads, true, x_i, x_i, ctx));
      auto pi =
          ag::Relu(PerHeadBank(params, &next, heads, false, x_p, x_i, ctx));
      auto ip =
          ag::Relu(PerHeadBank(params, &next, heads, false, x_i, x_p, ctx));
      ag::VarPtr q_p, q_i;
      if (agg == nn::AggKind::kAttention) {
        q_p = params[next++];
        q_i = params[next++];
      }
      EXPECT_EQ(next, params.size());
      return std::vector<ag::VarPtr>{nn::AggregatePair(agg, pp, pi, q_p),
                                     nn::AggregatePair(agg, ii, ip, q_i)};
    });
    ExpectSameGrads(lanes, per_head);
  }
}

TEST_P(AttentionLanesLayerTest, GatMatchesPerHeadGraphBitForBit) {
  const int heads = GetParam();
  const nn::GraphContext ctx = GridContext();
  Rng rng(8);
  const nn::GatLayer layer(7, 3 * heads, heads, &rng);
  const std::vector<ag::VarPtr> params = layer.Params();
  auto x = ag::MakeParam(RandomTensor(ctx.num_nodes, 7, 13));
  const Grads lanes = RunOnce(params, {x}, [&] {
    return std::vector<ag::VarPtr>{layer.Forward(x, ctx)};
  });
  const Grads per_head = RunOnce(params, {x}, [&] {
    size_t next = 0;
    return std::vector<ag::VarPtr>{
        PerHeadBank(params, &next, heads, true, x, x, ctx)};
  });
  ExpectSameGrads(lanes, per_head);
}

// 1 head per bank runs 4 lanes one at a time; 2 fill one vector of 8; 3
// make 12 lanes, a vector group and a 4-lane group; GAT runs 1, 2, 3 or 9.
INSTANTIATE_TEST_SUITE_P(Heads, AttentionLanesLayerTest,
                         ::testing::Values(1, 2, 3, 9));

}  // namespace
}  // namespace uv
