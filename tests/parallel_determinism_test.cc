// Asserts the parallel-compute determinism contract: for a fixed seed,
// every kernel and the full cross-validation runner produce bit-identical
// results for any UV_THREADS value. Each case computes the same quantity
// under a 1-thread and a 4-thread global pool and compares exactly (no
// tolerances). The suite is also registered with ctest a second time with
// UV_THREADS=4 in the environment to exercise the env-sized global pool.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "autograd/ops.h"
#include "baselines/registry.h"
#include "eval/runner.h"
#include "tensor/tensor_ops.h"
#include "test_helpers.h"
#include "util/buffer_pool.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace uv {
namespace {

Tensor RandomTensor(int r, int c, uint64_t seed) {
  Rng rng(seed);
  Tensor t(r, c);
  t.RandomNormal(&rng, 1.0f);
  return t;
}

// Runs fn under an n-thread global pool and restores a 4-thread pool after
// (so suite ordering never leaves a surprising global behind).
template <typename T>
T WithThreads(int n, const std::function<T()>& fn) {
  ThreadPool::SetGlobalThreads(n);
  T result = fn();
  ThreadPool::SetGlobalThreads(4);
  return result;
}

void ExpectBitIdentical(const Tensor& a, const Tensor& b) {
  ASSERT_TRUE(a.SameShape(b));
  EXPECT_EQ(MaxAbsDiff(a, b), 0.0f);
}

TEST(ParallelDeterminismTest, GemmAllTransposeCombos) {
  // Sizes above the parallel threshold so the 4-thread run actually forks.
  const Tensor a = RandomTensor(111, 96, 1);
  const Tensor at = Transpose(a);
  const Tensor b = RandomTensor(96, 103, 2);
  const Tensor bt = Transpose(b);
  const Tensor c0 = RandomTensor(111, 103, 3);
  for (const bool ta : {false, true}) {
    for (const bool tb : {false, true}) {
      std::function<Tensor()> run = [&] {
        Tensor c = c0;
        Gemm(ta, tb, 0.7f, ta ? at : a, tb ? bt : b, 0.3f, &c);
        return c;
      };
      ExpectBitIdentical(WithThreads(1, run), WithThreads(4, run));
    }
  }
}

TEST(ParallelDeterminismTest, Gemm512Cube) {
  const Tensor a = RandomTensor(512, 512, 11);
  const Tensor b = RandomTensor(512, 512, 12);
  std::function<Tensor()> run = [&] { return MatMul(a, b); };
  ExpectBitIdentical(WithThreads(1, run), WithThreads(4, run));
}

TEST(ParallelDeterminismTest, ElementwiseOps) {
  const Tensor x = RandomTensor(256, 200, 21);  // 51200 >= threshold
  const Tensor y = RandomTensor(256, 200, 22);
  std::function<Tensor()> axpy = [&] {
    Tensor out = y;
    Axpy(0.37f, x, &out);
    return out;
  };
  std::function<Tensor()> mul = [&] { return Mul(x, y); };
  std::function<Tensor()> scale = [&] { return Scale(x, -1.7f); };
  std::function<Tensor()> transpose = [&] { return Transpose(x); };
  ExpectBitIdentical(WithThreads(1, axpy), WithThreads(4, axpy));
  ExpectBitIdentical(WithThreads(1, mul), WithThreads(4, mul));
  ExpectBitIdentical(WithThreads(1, scale), WithThreads(4, scale));
  ExpectBitIdentical(WithThreads(1, transpose), WithThreads(4, transpose));
}

struct ConvResult {
  Tensor y, gx, gw, gb;
};

TEST(ParallelDeterminismTest, ConvForwardBackward) {
  const Conv2dSpec spec{3, 10, 10, 6, 3, 1, 1};
  const int n = 10;  // Spans multiple image chunks.
  const Tensor x0 = RandomTensor(n, 3 * 10 * 10, 31);
  const Tensor w0 = RandomTensor(6, 3 * 9, 32);
  const Tensor b0 = RandomTensor(1, 6, 33);
  std::function<ConvResult()> run = [&] {
    auto x = ag::MakeParam(x0);
    auto w = ag::MakeParam(w0);
    auto b = ag::MakeParam(b0);
    auto y = ag::Conv2d(x, w, b, spec);
    ag::Backward(ag::SumAll(ag::Mul(y, y)));
    return ConvResult{y->value, x->grad, w->grad, b->grad};
  };
  const ConvResult serial = WithThreads(1, run);
  const ConvResult parallel = WithThreads(4, run);
  ExpectBitIdentical(serial.y, parallel.y);
  ExpectBitIdentical(serial.gx, parallel.gx);
  ExpectBitIdentical(serial.gw, parallel.gw);
  ExpectBitIdentical(serial.gb, parallel.gb);
}

struct GraphResult {
  Tensor y, galpha, gfeats;
};

struct EdgeResult {
  Tensor y;
  std::vector<Tensor> grads;  // s_dst, s_src and x_src of every head.
};

// A CSR-style segment layout with uneven segment sizes (empty ones
// included) whose edges draw random, repeated source rows: enough segments
// and rows that every fused-op loop splits into several parallel chunks.
// Nine heads run one group of eight lanes and one single lane.
struct EdgeListFixture {
  static constexpr int kNodes = 700;
  static constexpr int kHeads = 9;
  std::shared_ptr<const std::vector<int>> offsets, src, dst;
  std::vector<Tensor> s_dst0, s_src0, x0;

  EdgeListFixture() {
    auto off = std::make_shared<std::vector<int>>(1, 0);
    auto s = std::make_shared<std::vector<int>>();
    auto d = std::make_shared<std::vector<int>>();
    Rng rng(41);
    for (int i = 0; i < kNodes; ++i) {
      const int degree = rng.UniformInt(7);
      for (int k = 0; k < degree; ++k) {
        s->push_back(rng.UniformInt(kNodes));
        d->push_back(i);
      }
      off->push_back(static_cast<int>(s->size()));
    }
    offsets = off;
    src = s;
    dst = d;
    for (int h = 0; h < kHeads; ++h) {
      s_dst0.push_back(RandomTensor(kNodes, 1, 42 + 3 * h));
      s_src0.push_back(RandomTensor(kNodes, 1, 44 + 3 * h));
      x0.push_back(RandomTensor(kNodes, 24, 43 + 3 * h));
    }
  }

  // Multi-head edge attention, forward and backward.
  EdgeResult Run() const {
    ag::AttentionHeads heads;
    for (int h = 0; h < kHeads; ++h) {
      heads.Add(ag::MakeParam(s_dst0[h]), ag::MakeParam(s_src0[h]),
                ag::MakeParam(x0[h]));
    }
    auto y = ag::EdgeAttention(heads, src, dst, offsets, 0.2f);
    ag::Backward(ag::SumAll(ag::Mul(y, y)));
    EdgeResult result{y->value, {}};
    for (int h = 0; h < kHeads; ++h) {
      result.grads.push_back(heads.s_dst[h]->grad);
      result.grads.push_back(heads.s_src[h]->grad);
      result.grads.push_back(heads.x_src[h]->grad);
    }
    return result;
  }
};

void ExpectSameEdgeResult(const EdgeResult& a, const EdgeResult& b) {
  ExpectBitIdentical(a.y, b.y);
  ASSERT_EQ(a.grads.size(), b.grads.size());
  for (size_t i = 0; i < a.grads.size(); ++i) {
    ExpectBitIdentical(a.grads[i], b.grads[i]);
  }
}

TEST(ParallelDeterminismTest, SegmentOpsForwardBackward) {
  const EdgeListFixture fixture;
  std::function<EdgeResult()> run = [&] { return fixture.Run(); };
  ExpectSameEdgeResult(WithThreads(1, run), WithThreads(4, run));
}

// The edge attention op fully overwrites or zeroes every slab it reads, so
// recycled (dirty) slabs and fresh system allocations give the same bits.
TEST(ParallelDeterminismTest, FusedEdgeOpsPoolOnOffBitIdentical) {
  const EdgeListFixture fixture;
  std::function<EdgeResult()> run = [&] { return fixture.Run(); };
  const bool was_enabled = BufferPool::Enabled();
  BufferPool::SetEnabled(true);
  const EdgeResult warm = WithThreads(4, run);  // Dirties pool slabs.
  const EdgeResult pooled = WithThreads(4, run);
  BufferPool::SetEnabled(false);
  const EdgeResult unpooled = WithThreads(1, run);
  BufferPool::SetEnabled(was_enabled);
  ExpectSameEdgeResult(warm, pooled);
  ExpectSameEdgeResult(pooled, unpooled);
}

TEST(ParallelDeterminismTest, ScatterOpsForwardBackward) {
  const int num_rows = 900;
  const int num_segments = 40;
  auto ids = std::make_shared<std::vector<int>>(num_rows);
  auto gather = std::make_shared<std::vector<int>>();
  Rng rng(51);
  for (int r = 0; r < num_rows; ++r) {
    (*ids)[r] = rng.UniformInt(num_segments + 1) - 1;  // -1 = dropped.
  }
  for (int e = 0; e < 1200; ++e) gather->push_back(rng.UniformInt(num_rows));
  const Tensor x0 = RandomTensor(num_rows, 16, 52);
  std::function<GraphResult()> run = [&] {
    auto x = ag::MakeParam(x0);
    auto pooled = ag::SegmentSumByIds(x, ids, num_segments);
    auto gathered = ag::GatherRows(x, gather);
    ag::Backward(ag::SumAll(ag::Add(ag::SumAll(ag::Mul(pooled, pooled)),
                                    ag::SumAll(ag::Mul(gathered, gathered)))));
    return GraphResult{pooled->value, gathered->value, x->grad};
  };
  const GraphResult serial = WithThreads(1, run);
  const GraphResult parallel = WithThreads(4, run);
  ExpectBitIdentical(serial.y, parallel.y);
  ExpectBitIdentical(serial.galpha, parallel.galpha);
  ExpectBitIdentical(serial.gfeats, parallel.gfeats);
}

TEST(ParallelDeterminismTest, RunCrossValidationMetricsBitIdentical) {
  const urg::UrbanRegionGraph urg = uv::testing::TinyUrg();
  std::function<eval::RunStats()> run = [&] {
    eval::RunnerOptions options;
    options.num_folds = 3;
    options.num_runs = 2;
    options.block_size = 8;
    options.seed = 99;
    return eval::RunCrossValidation(
        urg,
        [](uint64_t seed) {
          baselines::TrainOptions train;
          train.epochs = 8;
          train.seed = seed;
          core::CmsfConfig cmsf;
          cmsf.hidden_dim = 16;
          cmsf.num_clusters = 8;
          return baselines::MakeDetector("GCN", train, cmsf);
        },
        options);
  };
  const eval::RunStats serial = WithThreads(1, run);
  const eval::RunStats parallel = WithThreads(4, run);
  EXPECT_EQ(serial.auc.mean, parallel.auc.mean);
  EXPECT_EQ(serial.auc.std, parallel.auc.std);
  EXPECT_EQ(serial.recall3.mean, parallel.recall3.mean);
  EXPECT_EQ(serial.precision3.mean, parallel.precision3.mean);
  EXPECT_EQ(serial.f13.mean, parallel.f13.mean);
  EXPECT_EQ(serial.recall5.mean, parallel.recall5.mean);
  EXPECT_EQ(serial.precision5.mean, parallel.precision5.mean);
  EXPECT_EQ(serial.f15.mean, parallel.f15.mean);
  EXPECT_EQ(serial.num_parameters, parallel.num_parameters);
  EXPECT_GT(parallel.num_parameters, 0);
  EXPECT_GT(parallel.wall_seconds, 0.0);
}

// The BufferPool must be invisible to numerics: a recycled slab only ever
// reaches code that either zeroes it (Tensor(r, c), EnsureGrad) or fully
// overwrites it (Tensor::Uninit call sites), so metrics are bit-identical
// across pool on/off crossed with every thread count. This is the
// end-to-end check that no Uninit call site reads unwritten bytes.
TEST(ParallelDeterminismTest, PoolOnOffTimesThreadsMetricsBitIdentical) {
  const urg::UrbanRegionGraph urg = uv::testing::TinyUrg();
  std::function<eval::RunStats()> run = [&] {
    eval::RunnerOptions options;
    options.num_folds = 3;
    options.num_runs = 1;
    options.block_size = 8;
    options.seed = 77;
    return eval::RunCrossValidation(
        urg,
        [](uint64_t seed) {
          baselines::TrainOptions train;
          train.epochs = 6;
          train.seed = seed;
          core::CmsfConfig cmsf;
          cmsf.hidden_dim = 16;
          cmsf.num_clusters = 8;
          return baselines::MakeDetector("CMSF", train, cmsf);
        },
        options);
  };
  const bool was_enabled = BufferPool::Enabled();
  std::vector<eval::RunStats> results;
  for (const bool pool_on : {true, false}) {
    BufferPool::SetEnabled(pool_on);
    for (const int threads : {1, 4}) {
      results.push_back(WithThreads(threads, run));
    }
  }
  BufferPool::SetEnabled(was_enabled);
  const eval::RunStats& ref = results.front();
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(ref.auc.mean, results[i].auc.mean) << "config " << i;
    EXPECT_EQ(ref.auc.std, results[i].auc.std) << "config " << i;
    EXPECT_EQ(ref.f13.mean, results[i].f13.mean) << "config " << i;
    EXPECT_EQ(ref.f15.mean, results[i].f15.mean) << "config " << i;
    EXPECT_EQ(ref.recall3.mean, results[i].recall3.mean) << "config " << i;
    EXPECT_EQ(ref.precision3.mean, results[i].precision3.mean)
        << "config " << i;
  }
}

// Kernel-level pool parity: the same forward/backward graph produces
// bit-identical tensors with recycling on and off (dirty slabs included —
// the first pool-on pass leaves used slabs behind for the second).
TEST(ParallelDeterminismTest, KernelResultsPoolOnOffBitIdentical) {
  const Conv2dSpec spec{3, 10, 10, 6, 3, 1, 1};
  const Tensor x0 = RandomTensor(10, 3 * 10 * 10, 61);
  const Tensor w0 = RandomTensor(6, 3 * 9, 62);
  const Tensor b0 = RandomTensor(1, 6, 63);
  auto run = [&] {
    auto x = ag::MakeParam(x0);
    auto w = ag::MakeParam(w0);
    auto b = ag::MakeParam(b0);
    auto y = ag::Conv2d(x, w, b, spec);
    ag::Backward(ag::SumAll(ag::Mul(y, y)));
    return ConvResult{y->value, x->grad, w->grad, b->grad};
  };
  const bool was_enabled = BufferPool::Enabled();
  BufferPool::SetEnabled(true);
  const ConvResult warm = run();  // Dirties pool slabs.
  const ConvResult pooled = run();
  BufferPool::SetEnabled(false);
  const ConvResult unpooled = run();
  BufferPool::SetEnabled(was_enabled);
  ExpectBitIdentical(warm.y, pooled.y);
  ExpectBitIdentical(pooled.y, unpooled.y);
  ExpectBitIdentical(pooled.gx, unpooled.gx);
  ExpectBitIdentical(pooled.gw, unpooled.gw);
  ExpectBitIdentical(pooled.gb, unpooled.gb);
}

}  // namespace
}  // namespace uv
