#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "eval/metrics.h"
#include "eval/splits.h"
#include "util/rng.h"

namespace uv::eval {
namespace {

TEST(AucTest, PerfectRankingIsOne) {
  EXPECT_DOUBLE_EQ(Auc({0.9f, 0.8f, 0.2f, 0.1f}, {1, 1, 0, 0}), 1.0);
}

TEST(AucTest, InvertedRankingIsZero) {
  EXPECT_DOUBLE_EQ(Auc({0.1f, 0.2f, 0.8f, 0.9f}, {1, 1, 0, 0}), 0.0);
}

TEST(AucTest, AllTiedIsHalf) {
  EXPECT_DOUBLE_EQ(Auc({0.5f, 0.5f, 0.5f, 0.5f}, {1, 0, 1, 0}), 0.5);
}

TEST(AucTest, SingleClassIsHalf) {
  EXPECT_DOUBLE_EQ(Auc({0.1f, 0.9f}, {0, 0}), 0.5);
  EXPECT_DOUBLE_EQ(Auc({0.1f, 0.9f}, {1, 1}), 0.5);
}

TEST(AucTest, PartialOrdering) {
  // One inversion among 2x2 pairs: AUC = 3/4.
  EXPECT_DOUBLE_EQ(Auc({0.9f, 0.3f, 0.5f, 0.1f}, {1, 1, 0, 0}), 0.75);
}

TEST(AucTest, TiesGetMidrank) {
  // pos at 0.5, neg at 0.5 and 0.1: tie contributes 0.5 -> AUC = 0.75.
  EXPECT_DOUBLE_EQ(Auc({0.5f, 0.5f, 0.1f}, {1, 0, 0}), 0.75);
}

TEST(AucTest, InvariantToMonotoneTransform) {
  std::vector<float> s = {0.1f, 0.7f, 0.3f, 0.9f, 0.5f};
  std::vector<int> y = {0, 1, 0, 1, 1};
  std::vector<float> s2;
  for (float v : s) s2.push_back(v * v * 10.0f);
  EXPECT_DOUBLE_EQ(Auc(s, y), Auc(s2, y));
}

TEST(AucTest, RandomScoresNearHalf) {
  Rng rng(5);
  std::vector<float> s(4000);
  std::vector<int> y(4000);
  for (int i = 0; i < 4000; ++i) {
    s[i] = static_cast<float>(rng.Uniform());
    y[i] = rng.Bernoulli(0.1) ? 1 : 0;
  }
  EXPECT_NEAR(Auc(s, y), 0.5, 0.05);
}

TEST(TopPercentTest, CountsPredictions) {
  std::vector<float> s(100);
  std::vector<int> y(100, 0);
  for (int i = 0; i < 100; ++i) s[i] = i / 100.0f;
  y[99] = y[98] = y[97] = 1;  // Top three scores are the positives.
  auto m = TopPercent(s, y, 3.0);
  EXPECT_EQ(m.num_predicted, 3);
  EXPECT_DOUBLE_EQ(m.precision, 1.0);
  EXPECT_DOUBLE_EQ(m.recall, 1.0);
  EXPECT_DOUBLE_EQ(m.f1, 1.0);
}

TEST(TopPercentTest, PartialRecall) {
  std::vector<float> s = {0.9f, 0.8f, 0.7f, 0.1f, 0.05f,
                          0.04f, 0.03f, 0.02f, 0.01f, 0.005f};
  std::vector<int> y = {1, 0, 0, 1, 0, 0, 0, 0, 0, 0};
  auto m = TopPercent(s, y, 30.0);  // Top 3 of 10.
  EXPECT_EQ(m.num_predicted, 3);
  EXPECT_DOUBLE_EQ(m.precision, 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(m.recall, 0.5);
}

TEST(TopPercentTest, AtLeastOnePrediction) {
  auto m = TopPercent({0.3f, 0.1f}, {1, 0}, 1.0);
  EXPECT_EQ(m.num_predicted, 1);
  EXPECT_DOUBLE_EQ(m.precision, 1.0);
}

TEST(TopPercentTest, NoPositivesZeroRecall) {
  auto m = TopPercent({0.5f, 0.4f, 0.3f}, {0, 0, 0}, 50.0);
  EXPECT_DOUBLE_EQ(m.recall, 0.0);
  EXPECT_DOUBLE_EQ(m.f1, 0.0);
}

TEST(DetectionMetricsTest, CombinesAll) {
  std::vector<float> s(100);
  std::vector<int> y(100, 0);
  for (int i = 0; i < 100; ++i) s[i] = i / 100.0f;
  for (int i = 95; i < 100; ++i) y[i] = 1;
  auto m = ComputeDetectionMetrics(s, y);
  EXPECT_DOUBLE_EQ(m.auc, 1.0);
  EXPECT_EQ(m.at3.num_predicted, 3);
  EXPECT_EQ(m.at5.num_predicted, 5);
  EXPECT_DOUBLE_EQ(m.at5.recall, 1.0);
}

TEST(AggregateTest, MeanAndStd) {
  auto a = Aggregate({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(a.mean, 2.0);
  EXPECT_NEAR(a.std, std::sqrt(2.0 / 3.0), 1e-12);
  auto single = Aggregate({5.0});
  EXPECT_DOUBLE_EQ(single.mean, 5.0);
  EXPECT_DOUBLE_EQ(single.std, 0.0);
  auto empty = Aggregate({});
  EXPECT_DOUBLE_EQ(empty.mean, 0.0);
}

// Percentile takes index floor(p * n / 100) of the sorted samples, which
// is not nearest-rank: cmsfbench's setup_s and latency_ms_p50 depend on
// exactly this definition.
TEST(PercentileTest, TakesIndexFloorOfPTimesNOver100) {
  EXPECT_DOUBLE_EQ(Percentile({4.0, 2.0, 1.0, 3.0}, 50.0), 3.0);
  std::vector<double> twenty(20);
  for (int i = 0; i < 20; ++i) twenty[i] = 20.0 - i;
  EXPECT_DOUBLE_EQ(Percentile(twenty, 95.0), 20.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 50.0), 0.0);
}

// ------------------------------ Splits --------------------------------------

class BlockKFoldTest : public ::testing::TestWithParam<int> {};

TEST_P(BlockKFoldTest, PartitionProperties) {
  const int k = GetParam();
  graph::GridSpec grid{40, 40, 128.0};
  Rng rng(77);
  // Label a scattered subset.
  std::vector<int> labeled;
  for (int id = 0; id < grid.num_regions(); ++id) {
    if (rng.Bernoulli(0.15)) labeled.push_back(id);
  }
  auto folds = BlockKFold(grid, labeled, k, 10, &rng);
  ASSERT_EQ(folds.size(), static_cast<size_t>(k));

  // Every labeled id appears in exactly one test fold and k-1 train folds.
  std::map<int, int> test_count;
  for (const auto& fold : folds) {
    std::set<int> train(fold.train_ids.begin(), fold.train_ids.end());
    for (int id : fold.test_ids) {
      EXPECT_EQ(train.count(id), 0u) << "train/test overlap";
      ++test_count[id];
    }
  }
  for (int id : labeled) {
    EXPECT_EQ(test_count[id], 1) << "id " << id;
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, BlockKFoldTest, ::testing::Values(2, 3, 5));

TEST(BlockKFoldTest, BlockIntegrity) {
  // All labeled cells of one 10x10 block land in the same fold.
  graph::GridSpec grid{40, 40, 128.0};
  Rng rng(78);
  std::vector<int> labeled;
  for (int id = 0; id < grid.num_regions(); ++id) {
    if (rng.Bernoulli(0.2)) labeled.push_back(id);
  }
  auto folds = BlockKFold(grid, labeled, 3, 10, &rng);
  auto block_of = [&](int id) {
    return (grid.RowOf(id) / 10) * 4 + (grid.ColOf(id) / 10);
  };
  std::map<int, int> fold_of_block;
  for (size_t f = 0; f < folds.size(); ++f) {
    for (int id : folds[f].test_ids) {
      const int b = block_of(id);
      auto it = fold_of_block.find(b);
      if (it == fold_of_block.end()) {
        fold_of_block[b] = static_cast<int>(f);
      } else {
        EXPECT_EQ(it->second, static_cast<int>(f))
            << "block " << b << " split across folds";
      }
    }
  }
}

TEST(BlockKFoldTest, DeterministicGivenRngState) {
  graph::GridSpec grid{20, 20, 128.0};
  std::vector<int> labeled;
  for (int id = 0; id < grid.num_regions(); id += 3) labeled.push_back(id);
  Rng r1(5), r2(5);
  auto f1 = BlockKFold(grid, labeled, 3, 10, &r1);
  auto f2 = BlockKFold(grid, labeled, 3, 10, &r2);
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(f1[k].test_ids, f2[k].test_ids);
  }
}

TEST(MaskLabeledRatioTest, KeepsRequestedFraction) {
  std::vector<int> ids;
  std::vector<int> labels(1000, 0);
  for (int i = 0; i < 1000; ++i) ids.push_back(i);
  labels[7] = 1;
  Rng rng(9);
  auto kept = MaskLabeledRatio(ids, labels, 0.25, &rng);
  EXPECT_NEAR(static_cast<double>(kept.size()), 250.0, 2.0);
}

TEST(MaskLabeledRatioTest, AlwaysKeepsAPositive) {
  std::vector<int> ids = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<int> labels(10, 0);
  labels[3] = 1;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    auto kept = MaskLabeledRatio(ids, labels, 0.2, &rng);
    bool has_pos = false;
    for (int id : kept) has_pos |= (labels[id] == 1);
    EXPECT_TRUE(has_pos) << "seed " << seed;
  }
}

}  // namespace
}  // namespace uv::eval
