#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "eval/splits.h"
#include "infer/engine.h"
#include "test_helpers.h"

namespace uv::infer {
namespace {

// The engine's contract is bit-identity with the autograd Score path of the
// full-graph detector: both run the same shared forward kernels, so every
// comparison below is exact float equality, not an epsilon.
class InferEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    urg_ = new urg::UrbanRegionGraph(uv::testing::TinyUrg());
    Rng rng(3);
    auto folds = eval::BlockKFold(urg_->grid, urg_->LabeledIds(), 3, 8, &rng);
    fold_ = new eval::Fold(folds[0]);
    train_labels_ = new std::vector<int>();
    for (int id : fold_->train_ids) train_labels_->push_back(urg_->labels[id]);
  }

  // `tweak`, when set, edits the CMSF config before training.
  static std::unique_ptr<eval::Detector> TrainDetector(
      const std::string& name,
      const std::function<void(core::CmsfConfig*)>& tweak = nullptr) {
    baselines::TrainOptions options;
    options.epochs = 8;
    core::CmsfConfig config;
    config.hidden_dim = 16;
    config.image_reduce_dim = 16;
    config.num_clusters = 8;
    config.classifier_hidden = 8;
    config.context_dim = 4;
    config.master_epochs = 8;
    config.slave_epochs = 3;
    if (tweak) tweak(&config);
    auto detector = baselines::MakeDetector(name, options, config);
    detector->Train(*urg_, fold_->train_ids, *train_labels_);
    return detector;
  }

  static void ExpectEngineMatchesDetector(
      const std::string& name,
      const std::function<void(core::CmsfConfig*)>& tweak = nullptr) {
    auto detector = TrainDetector(name, tweak);
    const std::vector<float> expected =
        detector->Score(*urg_, fold_->test_ids);
    auto engine = baselines::MakeEngine(*detector, *urg_);
    ASSERT_NE(engine, nullptr) << name;
    EXPECT_EQ(engine->num_regions(), urg_->num_regions());

    // Full batch.
    const std::vector<float> got = engine->Score(fold_->test_ids);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], expected[i]) << name << " id " << fold_->test_ids[i];
    }

    // One id at a time: the tail is row-wise, so batch composition must not
    // change a single bit.
    for (size_t i = 0; i < fold_->test_ids.size(); ++i) {
      float one = 0.0f;
      engine->ScoreInto(&fold_->test_ids[i], 1, &one);
      EXPECT_EQ(one, expected[i]) << name << " id " << fold_->test_ids[i];
    }

    // Ragged batches (mixed sizes, duplicate ids).
    std::vector<int> ragged;
    for (size_t i = 0; i < fold_->test_ids.size(); ++i) {
      ragged.push_back(fold_->test_ids[i]);
      if (i % 3 == 0) ragged.push_back(fold_->test_ids[i]);
    }
    std::vector<float> ragged_out(ragged.size());
    engine->ScoreInto(ragged.data(), static_cast<int>(ragged.size()),
                      ragged_out.data());
    size_t j = 0;
    for (size_t i = 0; i < fold_->test_ids.size(); ++i) {
      EXPECT_EQ(ragged_out[j++], expected[i]);
      if (i % 3 == 0) {
        EXPECT_EQ(ragged_out[j++], expected[i]);
      }
    }
    ASSERT_EQ(j, ragged.size());
  }

  static urg::UrbanRegionGraph* urg_;
  static eval::Fold* fold_;
  static std::vector<int>* train_labels_;
};

urg::UrbanRegionGraph* InferEngineTest::urg_ = nullptr;
eval::Fold* InferEngineTest::fold_ = nullptr;
std::vector<int>* InferEngineTest::train_labels_ = nullptr;

TEST_F(InferEngineTest, CmsfFullExactMatch) {
  ExpectEngineMatchesDetector("CMSF");
}

// The request tail re-implements GSCM's AGG (eq. 13) on raw tensors; the
// cases above run the default kSum, these the other two kinds.
TEST_F(InferEngineTest, CmsfGscmConcatExactMatch) {
  ExpectEngineMatchesDetector("CMSF", [](core::CmsfConfig* config) {
    config->gscm_agg = nn::AggKind::kConcat;
  });
}

TEST_F(InferEngineTest, CmsfGscmAttentionExactMatch) {
  ExpectEngineMatchesDetector("CMSF", [](core::CmsfConfig* config) {
    config->gscm_agg = nn::AggKind::kAttention;
  });
}

TEST_F(InferEngineTest, CmsfNoMagaExactMatch) {
  ExpectEngineMatchesDetector("CMSF-M");
}

TEST_F(InferEngineTest, CmsfNoGateExactMatch) {
  ExpectEngineMatchesDetector("CMSF-G");
}

TEST_F(InferEngineTest, CmsfNoHierarchyExactMatch) {
  ExpectEngineMatchesDetector("CMSF-H");
}

TEST_F(InferEngineTest, GcnBaselineExactMatch) {
  ExpectEngineMatchesDetector("GCN");
}

TEST_F(InferEngineTest, GatBaselineExactMatch) {
  ExpectEngineMatchesDetector("GAT");
}

TEST_F(InferEngineTest, UnsupportedDetectorReturnsNull) {
  auto detector = TrainDetector("MLP");
  EXPECT_EQ(baselines::MakeEngine(*detector, *urg_), nullptr);
}

TEST_F(InferEngineTest, RepeatedCallsReuseWorkspaces) {
  auto detector = TrainDetector("CMSF");
  auto engine = baselines::MakeEngine(*detector, *urg_);
  ASSERT_NE(engine, nullptr);
  const std::vector<float> first = engine->Score(fold_->test_ids);
  // Many repeated calls (same and different sizes) must stay stable.
  for (int round = 0; round < 10; ++round) {
    const std::vector<float> again = engine->Score(fold_->test_ids);
    EXPECT_EQ(again, first);
    const std::vector<int> half(fold_->test_ids.begin(),
                                fold_->test_ids.begin() +
                                    fold_->test_ids.size() / 2);
    const std::vector<float> half_out = engine->Score(half);
    for (size_t i = 0; i < half.size(); ++i) {
      EXPECT_EQ(half_out[i], first[i]);
    }
  }
}

}  // namespace
}  // namespace uv::infer
