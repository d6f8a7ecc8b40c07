#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "autograd/ops.h"
#include "core/cmsf_detector.h"
#include "core/cmsf_model.h"
#include "eval/metrics.h"
#include "eval/splits.h"
#include "io/serialize.h"
#include "test_helpers.h"

namespace uv::core {
namespace {

// Shared fixture data: one tiny URG + one CV fold, built once.
class CmsfTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    urg_ = new urg::UrbanRegionGraph(uv::testing::TinyUrg());
    Rng rng(3);
    auto folds = eval::BlockKFold(urg_->grid, urg_->LabeledIds(), 3, 8, &rng);
    fold_ = new eval::Fold(folds[0]);
    train_labels_ = new std::vector<int>();
    for (int id : fold_->train_ids) train_labels_->push_back(urg_->labels[id]);
    test_labels_ = new std::vector<int>();
    for (int id : fold_->test_ids) test_labels_->push_back(urg_->labels[id]);
  }

  static CmsfConfig FastConfig() {
    CmsfConfig config;
    config.hidden_dim = 16;
    config.image_reduce_dim = 16;
    config.num_clusters = 8;
    config.classifier_hidden = 8;
    config.context_dim = 4;
    config.master_epochs = 30;
    config.slave_epochs = 8;
    config.learning_rate = 5e-3;
    return config;
  }

  // A whole-city plan over the fold's training set.
  static BatchPlan TrainPlan(const CmsfConfig& config) {
    BatchPlan plan(config.batch_size, config.fanout, config.maga_layers);
    plan.SetTrainSet(fold_->train_ids, *train_labels_, config.pos_weight);
    return plan;
  }

  static urg::UrbanRegionGraph* urg_;
  static eval::Fold* fold_;
  static std::vector<int>* train_labels_;
  static std::vector<int>* test_labels_;
};

urg::UrbanRegionGraph* CmsfTest::urg_ = nullptr;
eval::Fold* CmsfTest::fold_ = nullptr;
std::vector<int>* CmsfTest::train_labels_ = nullptr;
std::vector<int>* CmsfTest::test_labels_ = nullptr;

TEST_F(CmsfTest, MakeLabelTensorAndWeights) {
  Tensor labels = MakeLabelTensor({1, 0, 1, 0, 0, 0});
  EXPECT_FLOAT_EQ(labels.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(labels.at(1, 0), 0.0f);
  // Auto pos weight = neg/pos = 4/2.
  Tensor w = MakeBceWeights({1, 0, 1, 0, 0, 0}, 0.0);
  EXPECT_FLOAT_EQ(w.at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(w.at(1, 0), 1.0f);
  // Explicit weight.
  Tensor w2 = MakeBceWeights({1, 0}, 7.0);
  EXPECT_FLOAT_EQ(w2.at(0, 0), 7.0f);
}

TEST_F(CmsfTest, ModelShapesAcrossVariants) {
  Rng rng(5);
  for (bool use_maga : {true, false}) {
    for (bool use_hierarchy : {true, false}) {
      CmsfConfig config = FastConfig();
      config.use_maga = use_maga;
      config.use_hierarchy = use_hierarchy;
      config.use_gate = use_hierarchy;
      CmsfModel model(config, urg_->PoiDim(), urg_->ImageDim(), &rng);
      BatchPlan plan = TrainPlan(config);
      auto fwd = model.Forward(*plan.WholeCity(*urg_), nullptr);
      EXPECT_EQ(fwd.master_logits->rows(), urg_->num_regions());
      EXPECT_EQ(fwd.master_logits->cols(), 1);
      EXPECT_FALSE(fwd.master_logits->value.HasNonFinite());
      if (use_hierarchy) {
        EXPECT_EQ(fwd.assignment->cols(), config.num_clusters);
        EXPECT_EQ(fwd.cluster_repr->rows(), config.num_clusters);
      } else {
        EXPECT_EQ(fwd.assignment, nullptr);
      }
    }
  }
}

TEST_F(CmsfTest, MasterTrainingReducesLoss) {
  Rng rng(6);
  CmsfConfig config = FastConfig();
  config.master_epochs = 3;
  CmsfModel model(config, urg_->PoiDim(), urg_->ImageDim(), &rng);
  BatchPlan plan = TrainPlan(config);
  auto early = TrainMaster(&model, *urg_, &plan);

  Rng rng2(6);
  CmsfConfig config2 = FastConfig();
  CmsfModel model2(config2, urg_->PoiDim(), urg_->ImageDim(), &rng2);
  auto late = TrainMaster(&model2, *urg_, &plan);
  EXPECT_LT(late.final_loss, early.final_loss);
}

TEST_F(CmsfTest, FrozenAssignmentFromMasterTraining) {
  Rng rng(7);
  CmsfConfig config = FastConfig();
  config.master_epochs = 5;
  CmsfModel model(config, urg_->PoiDim(), urg_->ImageDim(), &rng);
  BatchPlan plan = TrainPlan(config);
  auto result = TrainMaster(&model, *urg_, &plan);
  EXPECT_EQ(result.frozen.soft.rows(), urg_->num_regions());
  EXPECT_EQ(result.frozen.soft.cols(), config.num_clusters);
  EXPECT_EQ(result.frozen.hard.size(),
            static_cast<size_t>(urg_->num_regions()));
  EXPECT_EQ(result.frozen.pseudo_labels.size(),
            static_cast<size_t>(config.num_clusters));
  // At least one cluster must contain a known UV.
  int positive_clusters = 0;
  for (int p : result.frozen.pseudo_labels) positive_clusters += p;
  EXPECT_GT(positive_clusters, 0);
}

TEST_F(CmsfTest, SlaveStageRunsAndKeepsLossFinite) {
  Rng rng(8);
  CmsfConfig config = FastConfig();
  config.master_epochs = 10;
  CmsfModel model(config, urg_->PoiDim(), urg_->ImageDim(), &rng);
  BatchPlan plan = TrainPlan(config);
  auto master = TrainMaster(&model, *urg_, &plan);
  auto slave = TrainSlave(&model, *urg_, &plan, master.frozen);
  EXPECT_GT(slave.seconds_per_epoch, 0.0);
  EXPECT_TRUE(std::isfinite(slave.final_loss));
}

// PredictCmsf scores under an ag::NoGradScope; once it returns, the next
// training step must still reach every parameter it trains.
TEST_F(CmsfTest, TrainingStepAfterPredictHasGradients) {
  Rng rng(10);
  CmsfConfig config = FastConfig();
  config.master_epochs = 2;
  CmsfModel model(config, urg_->PoiDim(), urg_->ImageDim(), &rng);
  BatchPlan plan = TrainPlan(config);
  const MasterTrainResult master = TrainMaster(&model, *urg_, &plan);
  const std::vector<float> scores =
      PredictCmsf(model, *urg_, &master.frozen, fold_->test_ids);
  ASSERT_EQ(scores.size(), fold_->test_ids.size());
  EXPECT_TRUE(ag::GradEnabled());

  const std::vector<ag::VarPtr> params = model.MasterParams();
  ag::ZeroGrads(params);
  const Batch& batch = plan.TrainBatch(*urg_, config.seed, 0, 0);
  const auto fwd = model.Forward(*batch.inputs, nullptr);
  ag::Backward(ag::BceWithLogits(ag::GatherRows(fwd.master_logits, batch.rows),
                                 batch.labels, &batch.weights));
  for (size_t i = 0; i < params.size(); ++i) {
    ASSERT_FALSE(params[i]->grad.empty()) << "parameter " << i;
    EXPECT_GT(params[i]->grad.Norm(), 0.0) << "parameter " << i;
  }
}

TEST_F(CmsfTest, PredictReturnsProbabilities) {
  CmsfConfig config = FastConfig();
  CmsfDetector detector(config);
  detector.Train(*urg_, fold_->train_ids, *train_labels_);
  auto scores = detector.Score(*urg_, fold_->test_ids);
  ASSERT_EQ(scores.size(), fold_->test_ids.size());
  for (float s : scores) {
    EXPECT_GE(s, 0.0f);
    EXPECT_LE(s, 1.0f);
  }
}

TEST_F(CmsfTest, LearnsBetterThanChance) {
  CmsfConfig config = FastConfig();
  config.master_epochs = 60;
  CmsfDetector detector(config);
  detector.Train(*urg_, fold_->train_ids, *train_labels_);
  auto scores = detector.Score(*urg_, fold_->test_ids);
  const double auc = eval::Auc(scores, *test_labels_);
  EXPECT_GT(auc, 0.7) << "CMSF should be well above chance on the tiny city";
}

TEST_F(CmsfTest, DeterministicGivenSeed) {
  CmsfConfig config = FastConfig();
  config.master_epochs = 10;
  config.slave_epochs = 3;
  CmsfDetector a(config), b(config);
  a.Train(*urg_, fold_->train_ids, *train_labels_);
  b.Train(*urg_, fold_->train_ids, *train_labels_);
  auto sa = a.Score(*urg_, fold_->test_ids);
  auto sb = b.Score(*urg_, fold_->test_ids);
  for (size_t i = 0; i < sa.size(); ++i) EXPECT_EQ(sa[i], sb[i]);
}

TEST_F(CmsfTest, VariantsTrainAndScore) {
  for (const char* name : {"CMSF-M", "CMSF-G", "CMSF-H"}) {
    CmsfConfig config = FastConfig();
    config.master_epochs = 8;
    config.slave_epochs = 3;
    if (std::string(name) == "CMSF-M") config.use_maga = false;
    if (std::string(name) == "CMSF-G") config.use_gate = false;
    if (std::string(name) == "CMSF-H") {
      config.use_hierarchy = false;
      config.use_gate = false;
    }
    CmsfDetector detector(config, name);
    detector.Train(*urg_, fold_->train_ids, *train_labels_);
    auto scores = detector.Score(*urg_, fold_->test_ids);
    EXPECT_EQ(scores.size(), fold_->test_ids.size()) << name;
    EXPECT_GT(detector.NumParameters(), 0) << name;
    // Only a gated variant runs the freeze sweep and the slave epochs that
    // Table III adds to its summed training time.
    if (config.use_gate) {
      EXPECT_GT(detector.OtherTrainSeconds(), 0.0) << name;
    } else {
      EXPECT_EQ(detector.OtherTrainSeconds(), 0.0) << name;
    }
  }
}

TEST_F(CmsfTest, GateAddsParameters) {
  Rng rng(9);
  CmsfConfig with_gate = FastConfig();
  CmsfConfig no_gate = FastConfig();
  no_gate.use_gate = false;
  CmsfModel a(with_gate, urg_->PoiDim(), urg_->ImageDim(), &rng);
  Rng rng2(9);
  CmsfModel b(no_gate, urg_->PoiDim(), urg_->ImageDim(), &rng2);
  int64_t pa = 0, pb = 0;
  for (const auto& p : a.AllParams()) pa += p->value.size();
  for (const auto& p : b.AllParams()) pb += p->value.size();
  EXPECT_GT(pa, pb);
}

TEST_F(CmsfTest, SaveLoadRoundTripPreservesPredictions) {
  CmsfConfig config = FastConfig();
  config.master_epochs = 10;
  config.slave_epochs = 3;
  CmsfDetector trained(config);
  trained.Train(*urg_, fold_->train_ids, *train_labels_);
  auto expected = trained.Score(*urg_, fold_->test_ids);

  const std::string path = ::testing::TempDir() + "/cmsf_checkpoint.bin";
  ASSERT_TRUE(trained.SaveModel(*urg_, path).ok());

  // Fresh detector with a different seed: loading the checkpoint must
  // reproduce the trained predictions exactly (parameters AND the frozen
  // stage-one assignment round-trip).
  CmsfConfig config2 = config;
  config2.seed = 999;
  CmsfDetector loaded(config2);
  ASSERT_TRUE(loaded.LoadModel(*urg_, path).ok());
  auto got = loaded.Score(*urg_, fold_->test_ids);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], expected[i], 1e-6f) << i;
  }
}

// CMSF-G never consumes a frozen assignment, so training skips the freeze
// sweep and the checkpoint carries its three frozen tensors empty; the
// round trip must still score identically and re-save byte for byte.
TEST_F(CmsfTest, GatelessRoundTripWithEmptyFrozenTensors) {
  CmsfConfig config = FastConfig();
  config.master_epochs = 10;
  config.use_gate = false;
  CmsfDetector trained(config, "CMSF-G");
  trained.Train(*urg_, fold_->train_ids, *train_labels_);
  EXPECT_EQ(trained.frozen().soft.size(), 0);
  EXPECT_TRUE(trained.frozen().hard.empty());
  EXPECT_TRUE(trained.frozen().pseudo_labels.empty());
  const auto expected = trained.Score(*urg_, fold_->test_ids);

  const std::string path = ::testing::TempDir() + "/cmsf_g_checkpoint.uvck";
  ASSERT_TRUE(trained.SaveModel(*urg_, path).ok());
  CmsfDetector loaded(FastConfig(), "CMSF-G");
  ASSERT_TRUE(loaded.LoadModel(*urg_, path).ok());
  EXPECT_EQ(loaded.frozen().soft.size(), 0);
  EXPECT_TRUE(loaded.frozen().hard.empty());
  EXPECT_TRUE(loaded.frozen().pseudo_labels.empty());
  EXPECT_EQ(loaded.Score(*urg_, fold_->test_ids), expected);

  const std::string again = ::testing::TempDir() + "/cmsf_g_resaved.uvck";
  ASSERT_TRUE(loaded.SaveModel(*urg_, again).ok());
  auto read = [](const std::string& file) {
    std::ifstream in(file, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  EXPECT_EQ(read(path), read(again));
}

TEST_F(CmsfTest, SaveBeforeTrainFails) {
  CmsfDetector detector(FastConfig());
  EXPECT_FALSE(
      detector.SaveModel(urg::UrbanRegionGraph(), "/tmp/never.bin").ok());
}

}  // namespace
}  // namespace uv::core
