#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "autograd/grad_check.h"
#include "autograd/ops.h"
#include "tensor/forward_ops.h"
#include "util/rng.h"

namespace uv::ag {
namespace {

Tensor RandomTensor(int r, int c, uint64_t seed) {
  Rng rng(seed);
  Tensor t(r, c);
  t.RandomNormal(&rng, 1.0f);
  return t;
}

std::shared_ptr<const std::vector<int>> Ids(std::vector<int> v) {
  return std::make_shared<const std::vector<int>>(std::move(v));
}

VarPtr SquaredReadout(const VarPtr& x) { return SumAll(Mul(x, x)); }

// A destination-grouped edge list: edge e with offsets[i] <= e <
// offsets[i+1] points into node i == dst[e] and reads source row src[e].
struct EdgeList {
  int nodes;
  std::shared_ptr<const std::vector<int>> offsets, src, dst;
};

// node0 <- {1, 2}; node1 <- {0}; node2 <- {} (empty segment).
EdgeList TinyGraph() {
  return {3, Ids({0, 2, 3, 3}), Ids({1, 2, 0}), Ids({0, 0, 1})};
}

// Repeated sources (node 2 feeds five edges, two of them into node 0) and
// an empty segment (node 2).
EdgeList RepeatGraph() {
  return {6, Ids({0, 3, 5, 5, 8, 10, 12}),
          Ids({2, 4, 2, 2, 0, 5, 2, 1, 3, 3, 2, 5}),
          Ids({0, 0, 0, 1, 1, 3, 3, 3, 4, 4, 5, 5})};
}

TEST(GatherRowsTest, Forward) {
  auto x = MakeConst(Tensor(3, 2, {1, 2, 3, 4, 5, 6}));
  auto g = GatherRows(x, Ids({2, 2, 0}));
  EXPECT_EQ(g->rows(), 3);
  EXPECT_FLOAT_EQ(g->value.at(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(g->value.at(2, 1), 2.0f);
}

TEST(GatherRowsTest, BackwardScatterAdds) {
  auto x = MakeParam(Tensor(3, 1, {1, 2, 3}));
  // Row 2 gathered twice: its gradient doubles.
  auto loss = SumAll(GatherRows(x, Ids({2, 2, 0})));
  Backward(loss);
  EXPECT_FLOAT_EQ(x->grad.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(x->grad.at(1, 0), 0.0f);
  EXPECT_FLOAT_EQ(x->grad.at(2, 0), 2.0f);
}

TEST(GatherRowsTest, GradCheck) {
  auto x = MakeParam(RandomTensor(4, 3, 5));
  auto idx = Ids({1, 3, 3, 0, 2});
  auto result = CheckGradients(
      {x}, [&]() { return SquaredReadout(GatherRows(x, idx)); });
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(SegmentSoftmaxTest, SegmentsSumToOne) {
  const EdgeList g = TinyGraph();
  // Edge scores leakyrelu(0 + s_src[src]): 1.0, -0.4, 0.5.
  auto s_dst = MakeConst(Tensor(3, 1));
  auto s_src = MakeConst(Tensor(3, 1, {0.5f, 1.0f, -2.0f}));
  auto alpha = EdgeSoftmax(s_dst, s_src, g.src, g.offsets, 0.2f);
  ASSERT_EQ(alpha->rows(), 3);
  EXPECT_NEAR(alpha->value.at(0, 0) + alpha->value.at(1, 0), 1.0f, 1e-6f);
  EXPECT_GT(alpha->value.at(0, 0), alpha->value.at(1, 0));
  EXPECT_NEAR(alpha->value.at(2, 0), 1.0f, 1e-6f);  // Singleton segment.
}

TEST(SegmentSoftmaxTest, LargeScoresStable) {
  const EdgeList g = TinyGraph();
  // Edge scores 500, leakyrelu(-500) = -100, 900.
  auto s_dst = MakeConst(Tensor(3, 1));
  auto s_src = MakeConst(Tensor(3, 1, {900.0f, 500.0f, -500.0f}));
  auto alpha = EdgeSoftmax(s_dst, s_src, g.src, g.offsets, 0.2f);
  EXPECT_FALSE(alpha->value.HasNonFinite());
  EXPECT_NEAR(alpha->value.at(0, 0), 1.0f, 1e-5f);
}

TEST(SegmentSoftmaxTest, GradCheck) {
  for (const EdgeList& g : {TinyGraph(), RepeatGraph()}) {
    auto s_dst = MakeParam(RandomTensor(g.nodes, 1, 6 + g.nodes));
    auto s_src = MakeParam(RandomTensor(g.nodes, 1, 16 + g.nodes));
    auto result = CheckGradients({s_dst, s_src}, [&]() {
      return SquaredReadout(
          EdgeSoftmax(s_dst, s_src, g.src, g.offsets, 0.2f));
    });
    EXPECT_TRUE(result.ok) << g.nodes << " nodes: " << result.detail;
  }
}

TEST(SegmentWeightedSumTest, Forward) {
  const EdgeList g = TinyGraph();
  auto alpha = MakeConst(Tensor(3, 1, {0.25f, 0.75f, 1.0f}));
  // Source rows of edges 0, 1, 2 are nodes 1, 2, 0.
  auto x = MakeConst(Tensor(3, 2, {2, 2, 4, 0, 0, 8}));
  auto out = NeighborWeightedSum(alpha, x, g.src, g.dst, g.offsets);
  EXPECT_EQ(out->rows(), 3);
  EXPECT_FLOAT_EQ(out->value.at(0, 0), 1.0f);   // 0.25*4.
  EXPECT_FLOAT_EQ(out->value.at(0, 1), 6.0f);   // 0.75*8.
  EXPECT_FLOAT_EQ(out->value.at(1, 0), 2.0f);   // 1.0*2.
  EXPECT_FLOAT_EQ(out->value.at(2, 0), 0.0f);   // Empty segment.
}

TEST(SegmentWeightedSumTest, GradCheckBothInputs) {
  for (const EdgeList& g : {TinyGraph(), RepeatGraph()}) {
    const int num_edges = static_cast<int>(g.src->size());
    auto alpha = MakeParam(RandomTensor(num_edges, 1, 7 + g.nodes));
    auto x = MakeParam(RandomTensor(g.nodes, 2, 8 + g.nodes));
    auto result = CheckGradients({alpha, x}, [&]() {
      return SquaredReadout(
          NeighborWeightedSum(alpha, x, g.src, g.dst, g.offsets));
    });
    EXPECT_TRUE(result.ok) << g.nodes << " nodes: " << result.detail;
  }
}

// Index arrays that do not fit the node rows abort instead of reading or
// writing out of bounds: a source id outside the source rows (negative or
// too large, in either op), a destination score column whose row count is
// not the segment count, a destination id outside the segments (read only
// by the source-row scatter in backward), and a destination past the end
// of an inverse scatter index.
TEST(FusedEdgeOpsDeathTest, IndexOutOfRangeAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const EdgeList g = TinyGraph();  // 3 nodes, 3 edges.
  auto too_large = Ids({1, 3, 0});
  auto negative = Ids({1, -1, 0});
  auto scores = MakeParam(RandomTensor(3, 1, 31));
  auto short_scores = MakeParam(RandomTensor(2, 1, 32));
  auto alpha = MakeParam(RandomTensor(3, 1, 33));
  auto x = MakeParam(RandomTensor(3, 2, 34));
  EXPECT_DEATH(EdgeSoftmax(scores, scores, too_large, g.offsets, 0.2f),
               "src_rows");
  EXPECT_DEATH(EdgeSoftmax(scores, scores, negative, g.offsets, 0.2f),
               "src\\[e\\] >= 0");
  EXPECT_DEATH(EdgeSoftmax(short_scores, scores, g.src, g.offsets, 0.2f),
               "s_dst.rows\\(\\) == num_segments");
  EXPECT_DEATH(NeighborWeightedSum(alpha, x, too_large, g.dst, g.offsets),
               "src_rows");
  EXPECT_DEATH(NeighborWeightedSum(alpha, x, negative, g.dst, g.offsets),
               "src\\[e\\] >= 0");
  auto bad_dst = Ids({0, 0, 3});
  EXPECT_DEATH(Backward(SumAll(
                   NeighborWeightedSum(alpha, x, g.src, bad_dst, g.offsets))),
               "dst\\[e\\] < num_segments");
  EXPECT_DEATH(uv::BuildSegmentDestIndex({0, 3}, 3), "num_destinations");
}

// The portable build must match the reference bit for bit. A build that
// targets FMA hardware (UV_NATIVE) lets the compiler fuse a*b + c in the
// library kernels and in this reference independently, so there only
// rounding-level differences are allowed.
void ExpectMatchesReference(const Tensor& a, const std::vector<float>& b) {
  ASSERT_EQ(a.size(), static_cast<int64_t>(b.size()));
#ifdef __FMA__
  for (size_t i = 0; i < b.size(); ++i) {
    EXPECT_NEAR(a.data()[i], b[i], 1e-5f * (1.0f + std::fabs(b[i])));
  }
#else
  EXPECT_EQ(std::memcmp(a.data(), b.data(), b.size() * sizeof(float)), 0);
#endif
}

// The fused pair must reproduce, bit for bit, the unfused chain it
// replaces: gather both score halves -> add -> LeakyReLU -> segment
// softmax -> gather source rows -> weighted sum, and that chain's backward
// with every gradient accumulated from zero in ascending edge order.
TEST(FusedEdgeOpsTest, MatchesUnfusedScalarChainBitForBit) {
  const EdgeList g = RepeatGraph();
  const int n = g.nodes, d = 5;
  const float slope = 0.2f;
  const auto& off = *g.offsets;
  const auto& src = *g.src;
  const auto& dst = *g.dst;
  const int num_edges = static_cast<int>(src.size());
  auto s_dst = MakeParam(RandomTensor(n, 1, 21));
  auto s_src = MakeParam(RandomTensor(n, 1, 22));
  auto x = MakeParam(RandomTensor(n, d, 23));
  const Tensor upstream = RandomTensor(n, d, 24);

  auto alpha = EdgeSoftmax(s_dst, s_src, g.src, g.offsets, slope);
  auto out = NeighborWeightedSum(alpha, x, g.src, g.dst, g.offsets);
  // d(loss)/d(out) is exactly `upstream`.
  Backward(SumAll(Mul(out, MakeConst(upstream))));

  // Unfused forward.
  const float* sd = s_dst->value.data();
  const float* ss = s_src->value.data();
  std::vector<float> pre(num_edges), score(num_edges), ref_alpha(num_edges);
  int positive = 0;
  for (int e = 0; e < num_edges; ++e) {
    pre[e] = sd[dst[e]] + ss[src[e]];
    score[e] = pre[e] > 0.0f ? pre[e] : slope * pre[e];
    positive += pre[e] > 0.0f;
  }
  ASSERT_GT(positive, 0);
  ASSERT_LT(positive, num_edges);  // Scores on both sides of 0.
  for (int i = 0; i < n; ++i) {
    float mx = -1e30f;
    for (int e = off[i]; e < off[i + 1]; ++e) mx = std::max(mx, score[e]);
    double total = 0.0;
    for (int e = off[i]; e < off[i + 1]; ++e) {
      ref_alpha[e] = std::exp(score[e] - mx);
      total += ref_alpha[e];
    }
    const float inv = total > 0.0 ? static_cast<float>(1.0 / total) : 0.0f;
    for (int e = off[i]; e < off[i + 1]; ++e) ref_alpha[e] *= inv;
  }
  std::vector<float> messages(num_edges * d);
  for (int e = 0; e < num_edges; ++e) {
    for (int c = 0; c < d; ++c) messages[e * d + c] = x->value.at(src[e], c);
  }
  std::vector<float> ref_out(n * d, 0.0f);
  for (int i = 0; i < n; ++i) {
    for (int e = off[i]; e < off[i + 1]; ++e) {
      for (int c = 0; c < d; ++c) {
        ref_out[i * d + c] += ref_alpha[e] * messages[e * d + c];
      }
    }
  }

  // Unfused backward, in the chain's reverse order.
  std::vector<float> g_alpha(num_edges, 0.0f);
  std::vector<float> g_messages(num_edges * d, 0.0f);
  for (int i = 0; i < n; ++i) {
    const float* gout = upstream.row(i);
    for (int e = off[i]; e < off[i + 1]; ++e) {
      float acc = 0.0f;
      for (int c = 0; c < d; ++c) acc += gout[c] * messages[e * d + c];
      g_alpha[e] += acc;
      for (int c = 0; c < d; ++c) {
        g_messages[e * d + c] += ref_alpha[e] * gout[c];
      }
    }
  }
  std::vector<float> g_x(n * d, 0.0f), g_sd(n, 0.0f), g_ss(n, 0.0f);
  for (int e = 0; e < num_edges; ++e) {  // Gather backward: ascending e.
    for (int c = 0; c < d; ++c) g_x[src[e] * d + c] += g_messages[e * d + c];
  }
  std::vector<float> g_pre(num_edges);
  for (int i = 0; i < n; ++i) {
    float dot = 0.0f;
    for (int e = off[i]; e < off[i + 1]; ++e) dot += ref_alpha[e] * g_alpha[e];
    for (int e = off[i]; e < off[i + 1]; ++e) {
      const float g_score = ref_alpha[e] * (g_alpha[e] - dot);
      g_pre[e] = g_score * (pre[e] > 0.0f ? 1.0f : slope);
    }
  }
  for (int e = 0; e < num_edges; ++e) {
    g_sd[dst[e]] += g_pre[e];
    g_ss[src[e]] += g_pre[e];
  }

  ExpectMatchesReference(alpha->value, ref_alpha);
  ExpectMatchesReference(out->value, ref_out);
  ExpectMatchesReference(alpha->grad, g_alpha);
  ExpectMatchesReference(x->grad, g_x);
  ExpectMatchesReference(s_dst->grad, g_sd);
  ExpectMatchesReference(s_src->grad, g_ss);
  for (int c = 0; c < d; ++c) EXPECT_EQ(out->value.at(2, c), 0.0f);
}

TEST(SegmentSumByIdsTest, ForwardDropsNegativeIds) {
  auto x = MakeConst(Tensor(4, 2, {1, 1, 2, 2, 3, 3, 4, 4}));
  auto ids = Ids({0, 1, 0, -1});
  auto out = SegmentSumByIds(x, ids, 2);
  EXPECT_FLOAT_EQ(out->value.at(0, 0), 4.0f);  // rows 0 + 2.
  EXPECT_FLOAT_EQ(out->value.at(1, 1), 2.0f);  // row 1.
}

TEST(SegmentSumByIdsTest, GradCheck) {
  auto x = MakeParam(RandomTensor(5, 3, 9));
  auto ids = Ids({0, 2, 1, 2, 0});
  auto result = CheckGradients({x}, [&]() {
    return SquaredReadout(SegmentSumByIds(x, ids, 3));
  });
  EXPECT_TRUE(result.ok) << result.detail;
}

// Attention-style composition over a random graph: the fused per-edge score
// softmax -> weighted aggregation path used by GAT/MAGA.
class AttentionPathTest : public ::testing::TestWithParam<int> {};

TEST_P(AttentionPathTest, GradCheckOnRandomGraph) {
  const int n = 5;
  Rng rng(GetParam());
  // Random edges grouped by destination.
  std::vector<int> offsets = {0};
  std::vector<int> src;
  for (int i = 0; i < n; ++i) {
    const int deg = 1 + rng.UniformInt(3);
    for (int e = 0; e < deg; ++e) src.push_back(rng.UniformInt(n));
    offsets.push_back(static_cast<int>(src.size()));
  }
  auto off = Ids(offsets);
  auto src_ids = Ids(src);
  std::vector<int> dst;
  for (int i = 0; i < n; ++i) {
    for (int e = offsets[i]; e < offsets[i + 1]; ++e) dst.push_back(i);
  }
  auto dst_ids = Ids(dst);

  auto x = MakeConst(RandomTensor(n, 3, 50 + GetParam()));
  auto w = MakeParam(RandomTensor(3, 2, 60 + GetParam()));
  auto a_src = MakeParam(RandomTensor(2, 1, 70 + GetParam()));
  auto a_dst = MakeParam(RandomTensor(2, 1, 80 + GetParam()));

  auto build = [&]() {
    auto h = MatMul(x, w);
    auto alpha =
        EdgeSoftmax(MatMul(h, a_dst), MatMul(h, a_src), src_ids, off, 0.2f);
    auto out = NeighborWeightedSum(alpha, h, src_ids, dst_ids, off);
    return SquaredReadout(out);
  };
  auto result = CheckGradients({w, a_src, a_dst}, build, 1e-3, 3e-2);
  EXPECT_TRUE(result.ok) << result.detail;
}

INSTANTIATE_TEST_SUITE_P(Seeds, AttentionPathTest, ::testing::Range(1, 6));

}  // namespace
}  // namespace uv::ag
