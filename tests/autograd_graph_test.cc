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

// One-head EdgeAttention over the edge list of `off`/`src`/`dst`.
VarPtr OneHead(const VarPtr& s_dst, const VarPtr& s_src, const VarPtr& x,
               const std::shared_ptr<const std::vector<int>>& src,
               const std::shared_ptr<const std::vector<int>>& dst,
               const std::shared_ptr<const std::vector<int>>& off) {
  AttentionHeads head;
  head.Add(s_dst, s_src, x);
  return EdgeAttention(head, src, dst, off, 0.2f);
}

// n x n identity rows: with them as source rows, output row i holds, in
// column j, the summed attention of segment i's edges from node j.
VarPtr IdentityRows(int n) {
  Tensor t(n, n);
  for (int i = 0; i < n; ++i) t.at(i, i) = 1.0f;
  return MakeConst(std::move(t));
}

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
  auto out =
      OneHead(s_dst, s_src, IdentityRows(3), g.src, g.dst, g.offsets)->value;
  EXPECT_NEAR(out.at(0, 1) + out.at(0, 2), 1.0f, 1e-6f);
  EXPECT_GT(out.at(0, 1), out.at(0, 2));
  EXPECT_NEAR(out.at(1, 0), 1.0f, 1e-6f);  // Singleton segment.
}

TEST(SegmentSoftmaxTest, LargeScoresStable) {
  const EdgeList g = TinyGraph();
  // Edge scores 500, leakyrelu(-500) = -100, 900.
  auto s_dst = MakeConst(Tensor(3, 1));
  auto s_src = MakeConst(Tensor(3, 1, {900.0f, 500.0f, -500.0f}));
  auto out =
      OneHead(s_dst, s_src, IdentityRows(3), g.src, g.dst, g.offsets)->value;
  EXPECT_FALSE(out.HasNonFinite());
  EXPECT_NEAR(out.at(0, 1), 1.0f, 1e-5f);
}

TEST(SegmentSoftmaxTest, GradCheck) {
  for (const EdgeList& g : {TinyGraph(), RepeatGraph()}) {
    auto s_dst = MakeParam(RandomTensor(g.nodes, 1, 6 + g.nodes));
    auto s_src = MakeParam(RandomTensor(g.nodes, 1, 16 + g.nodes));
    auto x = MakeConst(RandomTensor(g.nodes, 3, 26 + g.nodes));
    auto result = CheckGradients({s_dst, s_src}, [&]() {
      return SquaredReadout(OneHead(s_dst, s_src, x, g.src, g.dst, g.offsets));
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
// by the source-row scatters in backward), and a destination past the end
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
  EXPECT_DEATH(OneHead(scores, scores, x, too_large, g.dst, g.offsets),
               "src_rows");
  EXPECT_DEATH(OneHead(scores, scores, x, negative, g.dst, g.offsets),
               "src\\[e\\] >= 0");
  EXPECT_DEATH(OneHead(short_scores, scores, x, g.src, g.dst, g.offsets),
               "s_dst\\[j\\]->rows\\(\\) == num_segments");
  EXPECT_DEATH(NeighborWeightedSum(alpha, x, too_large, g.dst, g.offsets),
               "src_rows");
  EXPECT_DEATH(NeighborWeightedSum(alpha, x, negative, g.dst, g.offsets),
               "src\\[e\\] >= 0");
  auto bad_dst = Ids({0, 0, 3});
  EXPECT_DEATH(Backward(SumAll(
                   NeighborWeightedSum(alpha, x, g.src, bad_dst, g.offsets))),
               "dst\\[e\\] < num_segments");
  EXPECT_DEATH(
      Backward(SumAll(OneHead(scores, scores, x, g.src, bad_dst, g.offsets))),
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

// One head of the plain unfused chain: gather both score halves -> add ->
// LeakyReLU -> segment softmax -> gather source rows -> weighted sum, and
// that chain's backward with every gradient accumulated from zero in
// ascending edge order.
struct ChainResult {
  std::vector<float> out, g_x, g_sd, g_ss;
  int positive = 0;  // Edges whose pre-activation score is above 0.
};

ChainResult UnfusedHead(const EdgeList& g, const Tensor& sd_t,
                        const Tensor& ss_t, const Tensor& x_t,
                        const Tensor& upstream, float slope) {
  const auto& off = *g.offsets;
  const auto& src = *g.src;
  const auto& dst = *g.dst;
  const int n = g.nodes, d = x_t.cols();
  const int num_edges = static_cast<int>(src.size());
  const float* sd = sd_t.data();
  const float* ss = ss_t.data();
  ChainResult r;
  std::vector<float> pre(num_edges), score(num_edges), ref_alpha(num_edges);
  for (int e = 0; e < num_edges; ++e) {
    pre[e] = sd[dst[e]] + ss[src[e]];
    score[e] = pre[e] > 0.0f ? pre[e] : slope * pre[e];
    r.positive += pre[e] > 0.0f;
  }
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
    for (int c = 0; c < d; ++c) messages[e * d + c] = x_t.at(src[e], c);
  }
  r.out.assign(n * d, 0.0f);
  for (int i = 0; i < n; ++i) {
    for (int e = off[i]; e < off[i + 1]; ++e) {
      for (int c = 0; c < d; ++c) {
        r.out[i * d + c] += ref_alpha[e] * messages[e * d + c];
      }
    }
  }

  // Backward, in the chain's reverse order.
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
  r.g_x.assign(n * d, 0.0f);
  r.g_sd.assign(n, 0.0f);
  r.g_ss.assign(n, 0.0f);
  for (int e = 0; e < num_edges; ++e) {  // Gather backward: ascending e.
    for (int c = 0; c < d; ++c) r.g_x[src[e] * d + c] += g_messages[e * d + c];
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
    r.g_sd[dst[e]] += g_pre[e];
    r.g_ss[src[e]] += g_pre[e];
  }
  return r;
}

// Head h's column block of an n x (heads * d) output.
Tensor HeadColumns(const Tensor& t, int h, int d) {
  Tensor out(t.rows(), d);
  for (int r = 0; r < t.rows(); ++r) {
    for (int c = 0; c < d; ++c) out.at(r, c) = t.at(r, h * d + c);
  }
  return out;
}

// The lane op must reproduce, bit for bit and head by head, the unfused
// chain for every head count: the vector path (8 lanes), one lane at a
// time (1, 2 and 4), and 9 heads as a group of 8 plus one. RepeatGraph has
// repeated sources, an empty segment and a self loop; d = 5 and d = 19
// cover partial and whole 8-column blocks.
TEST(FusedEdgeOpsTest, MatchesUnfusedScalarChainBitForBit) {
  const EdgeList g = RepeatGraph();
  const int n = g.nodes;
  const float slope = 0.2f;
  for (const int d : {5, 19}) {
    for (const int heads : {1, 2, 4, 8, 9}) {
      SCOPED_TRACE(testing::Message() << heads << " heads, d = " << d);
      AttentionHeads lanes;
      for (int h = 0; h < heads; ++h) {
        lanes.Add(MakeParam(RandomTensor(n, 1, 100 + 3 * h)),
                  MakeParam(RandomTensor(n, 1, 101 + 3 * h)),
                  MakeParam(RandomTensor(n, d, 102 + 3 * h)));
      }
      const Tensor upstream = RandomTensor(n, heads * d, 24 + heads);
      auto out = EdgeAttention(lanes, g.src, g.dst, g.offsets, slope);
      ASSERT_EQ(out->cols(), heads * d);
      // d(loss)/d(out) is exactly `upstream`.
      Backward(SumAll(Mul(out, MakeConst(upstream))));
      for (int h = 0; h < heads; ++h) {
        SCOPED_TRACE(testing::Message() << "head " << h);
        const ChainResult ref = UnfusedHead(
            g, lanes.s_dst[h]->value, lanes.s_src[h]->value,
            lanes.x_src[h]->value, HeadColumns(upstream, h, d), slope);
        ASSERT_GT(ref.positive, 0);
        ASSERT_LT(ref.positive, static_cast<int>(g.src->size()));
        ExpectMatchesReference(HeadColumns(out->value, h, d), ref.out);
        ExpectMatchesReference(lanes.x_src[h]->grad, ref.g_x);
        ExpectMatchesReference(lanes.s_dst[h]->grad, ref.g_sd);
        ExpectMatchesReference(lanes.s_src[h]->grad, ref.g_ss);
        for (int c = 0; c < d; ++c) {
          EXPECT_EQ(out->value.at(2, h * d + c), 0.0f);  // Empty segment.
        }
      }
    }
  }
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
    return SquaredReadout(
        OneHead(MatMul(h, a_dst), MatMul(h, a_src), h, src_ids, dst_ids, off));
  };
  auto result = CheckGradients({w, a_src, a_dst}, build, 1e-3, 3e-2);
  EXPECT_TRUE(result.ok) << result.detail;
}

INSTANTIATE_TEST_SUITE_P(Seeds, AttentionPathTest, ::testing::Range(1, 6));

}  // namespace
}  // namespace uv::ag
