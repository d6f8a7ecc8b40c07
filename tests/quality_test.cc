#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "baselines/registry.h"
#include "core/cmsf_detector.h"
#include "eval/splits.h"
#include "infer/engine.h"
#include "infer/server.h"
#include "obs/metrics.h"
#include "obs/quality.h"
#include "test_helpers.h"

namespace uv::obs {
namespace {

// ---------------------------------------------------------------------------
// Binning rules and divergence math.
// ---------------------------------------------------------------------------

TEST(QualityMath, FeatureBinRules) {
  float edges[QualityBaseline::kFeatureBins - 1];
  for (int i = 0; i < QualityBaseline::kFeatureBins - 1; ++i) {
    edges[i] = static_cast<float>(i + 1);  // 1, 2, ..., 9.
  }
  EXPECT_EQ(QualityBaseline::FeatureBin(-5.0f, edges), 0);
  EXPECT_EQ(QualityBaseline::FeatureBin(0.5f, edges), 0);
  EXPECT_EQ(QualityBaseline::FeatureBin(1.0f, edges), 0);  // Equal falls low.
  EXPECT_EQ(QualityBaseline::FeatureBin(1.5f, edges), 1);
  EXPECT_EQ(QualityBaseline::FeatureBin(9.0f, edges), 8);
  EXPECT_EQ(QualityBaseline::FeatureBin(9.5f, edges), 9);
  EXPECT_EQ(QualityBaseline::FeatureBin(1e9f, edges), 9);
  EXPECT_EQ(QualityBaseline::FeatureBin(std::nanf(""), edges), 0);
}

TEST(QualityMath, ScoreAndCalibBinRules) {
  EXPECT_EQ(QualityBaseline::ScoreBin(0.0f), 0);
  EXPECT_EQ(QualityBaseline::ScoreBin(-1.0f), 0);
  EXPECT_EQ(QualityBaseline::ScoreBin(std::nanf("")), 0);
  EXPECT_EQ(QualityBaseline::ScoreBin(0.049f), 0);
  EXPECT_EQ(QualityBaseline::ScoreBin(0.051f), 1);
  EXPECT_EQ(QualityBaseline::ScoreBin(0.999f), 19);
  EXPECT_EQ(QualityBaseline::ScoreBin(1.0f), 19);  // Clamped top bin.
  EXPECT_EQ(QualityBaseline::CalibBin(0.0f), 0);
  EXPECT_EQ(QualityBaseline::CalibBin(0.55f), 5);
  EXPECT_EQ(QualityBaseline::CalibBin(1.0f), 9);
}

TEST(QualityMath, PsiExactlyZeroOnProportionalCounts) {
  // IEEE division is correctly rounded, so 6/20 == 3/10 bit-for-bit and
  // every term short-circuits before the epsilon floor.
  const uint64_t expected[4] = {3, 5, 2, 10};
  const uint64_t actual[4] = {6, 10, 4, 20};
  EXPECT_EQ(PopulationStabilityIndex(expected, actual, 4), 0.0);
  EXPECT_EQ(KlDivergence(expected, actual, 4), 0.0);
  // Identity, and the empty-side convention.
  EXPECT_EQ(PopulationStabilityIndex(expected, expected, 4), 0.0);
  const uint64_t zeros[4] = {0, 0, 0, 0};
  EXPECT_EQ(PopulationStabilityIndex(expected, zeros, 4), 0.0);
}

TEST(QualityMath, PsiHandComputedValue) {
  // p = {1/2, 1/2}, q = {3/4, 1/4}:
  //   (3/4 - 1/2) ln(3/2) + (1/4 - 1/2) ln(1/2) = ln(3) / 4.
  const uint64_t expected[2] = {1, 1};
  const uint64_t actual[2] = {3, 1};
  EXPECT_DOUBLE_EQ(PopulationStabilityIndex(expected, actual, 2),
                   std::log(3.0) / 4.0);
  // KL(q || p) = 3/4 ln(3/2) + 1/4 ln(1/2).
  EXPECT_DOUBLE_EQ(KlDivergence(expected, actual, 2),
                   0.75 * std::log(1.5) + 0.25 * std::log(0.5));
  EXPECT_GT(PopulationStabilityIndex(actual, expected, 2), 0.0);
}

TEST(QualityMath, EceHandComputedValue) {
  // One bin: 2 samples, mean confidence 0.7, accuracy 0.5 -> ECE 0.2.
  uint64_t count[2] = {2, 0};
  double score_sum[2] = {1.4, 0.0};
  uint64_t pos[2] = {1, 0};
  EXPECT_DOUBLE_EQ(ExpectedCalibrationError(count, score_sum, pos, 2), 0.2);
  // Two bins weight by population: add 2 perfectly calibrated samples.
  count[1] = 2;
  score_sum[1] = 1.0;
  pos[1] = 1;
  EXPECT_DOUBLE_EQ(ExpectedCalibrationError(count, score_sum, pos, 2), 0.1);
  const uint64_t empty[2] = {0, 0};
  EXPECT_EQ(ExpectedCalibrationError(empty, score_sum, pos, 2), 0.0);
}

// ---------------------------------------------------------------------------
// Baseline builder.
// ---------------------------------------------------------------------------

// Deterministic pseudo-data without drawing on util Rng: a splitmix-style
// scramble mapped into [0, 1).
float Synth(int64_t i) {
  uint64_t z = static_cast<uint64_t>(i) * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return static_cast<float>((z ^ (z >> 31)) >> 40) / 16777216.0f;
}

TEST(QualityBaselineBuild, CountsEdgesAndMoments) {
  const int64_t n = 200;
  const int d = 3;
  std::vector<float> features(n * d);
  std::vector<float> scores(n);
  for (int64_t i = 0; i < n; ++i) {
    for (int c = 0; c < d; ++c) features[i * d + c] = Synth(i * d + c) + c;
    scores[i] = Synth(1000 + i);
  }
  std::vector<float> labeled(scores.begin(), scores.begin() + 40);
  std::vector<int> labels(40);
  for (int i = 0; i < 40; ++i) labels[i] = i % 3 == 0 ? 1 : 0;

  const QualityBaseline base =
      BuildQualityBaseline(features.data(), n, d, scores.data(), n,
                           labeled.data(), labels.data(), 40);
  ASSERT_EQ(static_cast<int>(base.columns.size()), d);
  for (int c = 0; c < d; ++c) {
    const QualityBaseline::Column& col = base.columns[c];
    uint64_t total = 0;
    for (uint64_t count : col.counts) total += count;
    EXPECT_EQ(total, static_cast<uint64_t>(n));
    for (int e = 1; e < QualityBaseline::kFeatureBins - 1; ++e) {
      EXPECT_LE(col.edges[e - 1], col.edges[e]);
    }
    // Column c lives in [c, c+1): the mean must too, and deciles of a
    // near-uniform column put every bin within a loose band.
    EXPECT_GT(col.mean, static_cast<float>(c));
    EXPECT_LT(col.mean, static_cast<float>(c + 1));
    EXPECT_GT(col.stdev, 0.0f);
  }
  uint64_t score_total = 0;
  for (uint64_t count : base.score_counts) score_total += count;
  EXPECT_EQ(score_total, static_cast<uint64_t>(n));
  uint64_t calib_total = 0;
  for (uint64_t count : base.calib_count) calib_total += count;
  EXPECT_EQ(calib_total, 40u);

  // Determinism: rebuilding from the same inputs is bit-identical.
  const QualityBaseline again =
      BuildQualityBaseline(features.data(), n, d, scores.data(), n,
                           labeled.data(), labels.data(), 40);
  for (int c = 0; c < d; ++c) {
    for (int e = 0; e < QualityBaseline::kFeatureBins - 1; ++e) {
      EXPECT_EQ(base.columns[c].edges[e], again.columns[c].edges[e]);
    }
    EXPECT_EQ(base.columns[c].mean, again.columns[c].mean);
  }
}

// ---------------------------------------------------------------------------
// Monitor sketch determinism: one batch vs many batches vs many threads
// must produce bit-identical reports — the sketches are commutative
// integer accumulators by construction.
// ---------------------------------------------------------------------------

void ExpectSameDrift(const DriftReport& a, const DriftReport& b) {
  EXPECT_EQ(a.feature_rows, b.feature_rows);
  EXPECT_EQ(a.scores, b.scores);
  EXPECT_EQ(a.feature_psi_max, b.feature_psi_max);
  EXPECT_EQ(a.feature_psi_argmax, b.feature_psi_argmax);
  EXPECT_EQ(a.feature_psi_mean, b.feature_psi_mean);
  EXPECT_EQ(a.feature_mean_zshift_max, b.feature_mean_zshift_max);
  EXPECT_EQ(a.score_psi, b.score_psi);
  EXPECT_EQ(a.score_kl, b.score_kl);
  EXPECT_EQ(a.alert, b.alert);
}

TEST(QualityMonitorDeterminism, BatchCompositionAndThreadsAreIrrelevant) {
  const int64_t n = 257;  // Deliberately not a multiple of anything.
  const int d = 4;
  std::vector<float> features(n * d);
  std::vector<float> scores(n);
  for (int64_t i = 0; i < n; ++i) {
    for (int c = 0; c < d; ++c) {
      features[i * d + c] = 2.0f * Synth(i * d + c) - 0.3f;
    }
    scores[i] = Synth(5000 + i);
  }
  const QualityBaseline base = BuildQualityBaseline(
      features.data(), n / 2, d, scores.data(), n / 2, nullptr, nullptr, 0);

  QualityOptions opts;
  opts.publish_every_batches = 0;  // Manual publish only.

  // (a) One monolithic batch.
  QualityMonitor mono(base, opts);
  mono.ObserveBatch(features.data(), static_cast<int>(n), d, scores.data());

  // (b) Serial ragged batches: 1, 2, 3, ... rows at a time.
  QualityMonitor ragged(base, opts);
  for (int64_t at = 0, step = 1; at < n; at += step, ++step) {
    const int take = static_cast<int>(std::min<int64_t>(step, n - at));
    ragged.ObserveBatch(features.data() + at * d, take, d,
                        scores.data() + at);
  }

  // (c) Four threads, interleaved stripes of 7 rows.
  QualityMonitor threaded(base, opts);
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (int64_t at = 7 * t; at < n; at += 28) {
        const int take = static_cast<int>(std::min<int64_t>(7, n - at));
        threaded.ObserveBatch(features.data() + at * d, take, d,
                              scores.data() + at);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  const DriftReport want = mono.ComputeDrift();
  EXPECT_EQ(want.feature_rows, static_cast<uint64_t>(n));
  ExpectSameDrift(want, ragged.ComputeDrift());
  ExpectSameDrift(want, threaded.ComputeDrift());
}

TEST(QualityMonitorDeterminism, LabelFeedbackOrderIndependentEce) {
  QualityOptions opts;
  opts.label_window = 512;
  const QualityBaseline base;  // Calibration needs no baseline.

  const int n = 96;
  std::vector<float> scores(n);
  std::vector<int> labels(n);
  for (int i = 0; i < n; ++i) {
    scores[i] = Synth(42 + i);
    labels[i] = Synth(900 + i) > 0.6f ? 1 : 0;
  }

  QualityMonitor serial(base, opts);
  serial.ObserveLabels(scores.data(), labels.data(), n);

  QualityMonitor threaded(base, opts);
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (int at = t; at < n; at += 4) {
        threaded.ObserveLabels(scores.data() + at, labels.data() + at, 1);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  const CalibrationReport a = serial.ComputeCalibration();
  const CalibrationReport b = threaded.ComputeCalibration();
  EXPECT_EQ(a.labels, static_cast<uint64_t>(n));
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.ece, b.ece);  // Fixed-point bin sums commute exactly.
  // Ring order differs across threads but the tp/fp/fn multiset does not.
  EXPECT_EQ(a.precision, b.precision);
  EXPECT_EQ(a.recall, b.recall);
  EXPECT_GT(a.ece, 0.0);
}

TEST(QualityMonitor, CalibrationHandComputed) {
  const QualityBaseline base;
  QualityOptions opts;
  opts.label_window = 8;
  QualityMonitor monitor(base, opts);
  // Two samples in bin 7 (confidence 0.75, accuracy 0.5), two in bin 2
  // (confidence 0.25, accuracy 0.5): ECE = 0.25.
  const float scores[4] = {0.75f, 0.75f, 0.25f, 0.25f};
  const int labels[4] = {1, 0, 1, 0};
  monitor.ObserveLabels(scores, labels, 4);
  const CalibrationReport calib = monitor.ComputeCalibration();
  EXPECT_EQ(calib.labels, 4u);
  EXPECT_NEAR(calib.ece, 0.25, 1e-6);  // Fixed-point score quantization.
  // At threshold 0.5: predictions {1,1,0,0}, truths {1,0,1,0}.
  EXPECT_DOUBLE_EQ(calib.precision, 0.5);
  EXPECT_DOUBLE_EQ(calib.recall, 0.5);
}

TEST(QualityOptionsEnv, ParsesAndIgnoresGarbage) {
  unsetenv("UV_PSI_ALERT");
  unsetenv("UV_LABEL_WINDOW");
  const QualityOptions defaults = QualityOptions::FromEnv();
  EXPECT_DOUBLE_EQ(defaults.psi_alert, 0.2);
  EXPECT_EQ(defaults.label_window, 4096);
  setenv("UV_PSI_ALERT", "0.5", 1);
  setenv("UV_LABEL_WINDOW", "128", 1);
  const QualityOptions overridden = QualityOptions::FromEnv();
  EXPECT_DOUBLE_EQ(overridden.psi_alert, 0.5);
  EXPECT_EQ(overridden.label_window, 128);
  setenv("UV_PSI_ALERT", "-3", 1);
  setenv("UV_LABEL_WINDOW", "bogus", 1);
  const QualityOptions garbage = QualityOptions::FromEnv();
  EXPECT_DOUBLE_EQ(garbage.psi_alert, 0.2);
  EXPECT_EQ(garbage.label_window, 4096);
  unsetenv("UV_PSI_ALERT");
  unsetenv("UV_LABEL_WINDOW");
}

}  // namespace
}  // namespace uv::obs

// ---------------------------------------------------------------------------
// End to end: checkpoint baseline -> engine hook -> server -> drift/shadow.
// ---------------------------------------------------------------------------

namespace uv::infer {
namespace {

class QualityServingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    urg_ = new urg::UrbanRegionGraph(uv::testing::TinyUrg());
    Rng rng(3);
    auto folds = eval::BlockKFold(urg_->grid, urg_->LabeledIds(), 3, 8, &rng);
    const eval::Fold& fold = folds[0];
    std::vector<int> train_labels;
    for (int id : fold.train_ids) train_labels.push_back(urg_->labels[id]);

    core::CmsfConfig config;
    config.hidden_dim = 16;
    config.image_reduce_dim = 16;
    config.num_clusters = 8;
    config.classifier_hidden = 8;
    config.context_dim = 4;
    config.master_epochs = 8;
    config.slave_epochs = 3;
    core::CmsfDetector trained(config);
    trained.Train(*urg_, fold.train_ids, train_labels);

    // The baseline the monitors use must be the one that survives the
    // UVCK round trip, not the in-memory copy.
    const std::string path =
        ::testing::TempDir() + "/quality_serving_test.uvck";
    ASSERT_TRUE(trained.SaveModel(*urg_, path).ok());
    detector_ = new core::CmsfDetector(core::CmsfConfig{});
    ASSERT_TRUE(detector_->LoadModel(*urg_, path).ok());

    all_ids_ = new std::vector<int>(urg_->num_regions());
    std::iota(all_ids_->begin(), all_ids_->end(), 0);
    auto engine = baselines::MakeEngine(*detector_, *urg_);
    expected_ = new std::vector<float>(engine->Score(*all_ids_));
  }

  static obs::QualityOptions ManualPublish() {
    obs::QualityOptions opts;
    opts.publish_every_batches = 0;
    return opts;
  }

  static urg::UrbanRegionGraph* urg_;
  static core::CmsfDetector* detector_;
  static std::vector<int>* all_ids_;
  static std::vector<float>* expected_;
};

urg::UrbanRegionGraph* QualityServingTest::urg_ = nullptr;
core::CmsfDetector* QualityServingTest::detector_ = nullptr;
std::vector<int>* QualityServingTest::all_ids_ = nullptr;
std::vector<float>* QualityServingTest::expected_ = nullptr;

TEST_F(QualityServingTest, PsiExactlyZeroServingTheTrainingCity) {
  auto engine = baselines::MakeEngine(*detector_, *urg_);
  obs::QualityMonitor monitor(detector_->baseline(*urg_), ManualPublish());
  engine->SetQualityMonitor(&monitor);
  ScoringServer server(engine.get());
  // Serve the full city twice, in uneven request sizes: counts are then
  // 2x the baseline's, and proportions are bit-identical.
  for (int pass = 0; pass < 2; ++pass) {
    size_t at = 0;
    size_t step = 1;
    while (at < all_ids_->size()) {
      const size_t take = std::min(step, all_ids_->size() - at);
      std::vector<float> out(take);
      server.Score(all_ids_->data() + at, static_cast<int>(take),
                   out.data());
      at += take;
      step = step * 2 + 1;
    }
  }
  const obs::DriftReport drift = monitor.ComputeDrift();
  EXPECT_TRUE(drift.has_baseline);
  EXPECT_EQ(drift.feature_rows,
            static_cast<uint64_t>(2 * urg_->num_regions()));
  EXPECT_EQ(drift.feature_psi_max, 0.0);  // Exactly, not approximately.
  EXPECT_EQ(drift.feature_psi_mean, 0.0);
  EXPECT_EQ(drift.score_psi, 0.0);
  EXPECT_EQ(drift.score_kl, 0.0);
  EXPECT_FALSE(drift.alert);
}

TEST_F(QualityServingTest, ShiftedCityTripsThePsiAlert) {
  Tensor poi, image;
  urg_->GatherPoiRows(*all_ids_, &poi);
  urg_->GatherImageRows(*all_ids_, &image);
  for (int64_t i = 0; i < poi.size(); ++i) poi[i] = poi[i] * 1.6f + 0.8f;
  urg::UrbanRegionGraph shifted = *urg_;
  shifted.features = std::make_shared<urg::ResidentFeatureStore>(
      std::move(poi), std::move(image));

  auto engine = baselines::MakeEngine(*detector_, shifted);
  obs::QualityMonitor monitor(detector_->baseline(*urg_), ManualPublish());
  engine->SetQualityMonitor(&monitor);
  ScoringServer server(engine.get());
  (void)server.Score(*all_ids_);

  const obs::DriftReport drift = monitor.ComputeDrift();
  EXPECT_GT(drift.feature_psi_max, monitor.options().psi_alert);
  EXPECT_GE(drift.feature_psi_argmax, 0);
  EXPECT_TRUE(drift.alert);

  // Publish twice: the alert counter records the rising edge only once.
  obs::Counter& alerts = obs::Registry::Global().GetCounter("drift.alerts");
  const uint64_t before = alerts.Value();
  monitor.Publish();
  monitor.Publish();
  EXPECT_EQ(alerts.Value(), before + 1);
  EXPECT_EQ(obs::Registry::Global().GetGauge("drift.alert").Value(), 1);
}

TEST_F(QualityServingTest, ShadowBitIdenticalWithSameCheckpoint) {
  auto primary = baselines::MakeEngine(*detector_, *urg_);
  auto candidate = baselines::MakeEngine(*detector_, *urg_);
  ServerOptions options;
  options.shadow = candidate.get();
  options.shadow_sample = 1.0;
  ScoringServer server(primary.get(), options);
  const std::vector<float> got = server.Score(*all_ids_);
  server.Shutdown();  // Flush: shadow totals update after clients wake.
  EXPECT_EQ(got, *expected_);
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.shadow_requests, 1u);
  EXPECT_EQ(stats.shadow_regions,
            static_cast<uint64_t>(urg_->num_regions()));
  EXPECT_EQ(stats.shadow_disagreements, 0u);
}

TEST_F(QualityServingTest, ShadowSampleZeroDisablesReScoring) {
  auto primary = baselines::MakeEngine(*detector_, *urg_);
  auto candidate = baselines::MakeEngine(*detector_, *urg_);
  ServerOptions options;
  options.shadow = candidate.get();
  options.shadow_sample = 0.0;
  ScoringServer server(primary.get(), options);
  EXPECT_EQ(server.Score(*all_ids_), *expected_);
  server.Shutdown();
  EXPECT_EQ(server.Stats().shadow_regions, 0u);
  EXPECT_EQ(server.Stats().shadow_requests, 0u);
}

TEST_F(QualityServingTest, ShadowDisagreementLeavesPrimaryUntouched) {
  auto primary = baselines::MakeEngine(*detector_, *urg_);
  // A constant always-positive candidate: logit 10 for every region, so
  // every primary score below 0.5 is a recorded decision flip.
  const int n = urg_->num_regions();
  auto candidate = MakeDenseTailEngine(
      Tensor(n, 1), Tensor(1, 1), Tensor(1, 1), Tensor(1, 1),
      Tensor(1, 1, {10.0f}));
  uint64_t below = 0;
  for (float s : *expected_) below += s < 0.5f ? 1 : 0;
  ASSERT_GT(below, 0u);  // The tiny city is mostly non-UV.

  ServerOptions options;
  options.shadow = candidate.get();
  options.shadow_sample = 1.0;
  ScoringServer server(primary.get(), options);
  const std::vector<float> got = server.Score(*all_ids_);
  server.Shutdown();
  EXPECT_EQ(got, *expected_);  // Served results never see the shadow.
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.shadow_regions, static_cast<uint64_t>(n));
  EXPECT_EQ(stats.shadow_disagreements, below);
}

TEST_F(QualityServingTest, FeedbackRoutesToTheMonitor) {
  auto engine = baselines::MakeEngine(*detector_, *urg_);
  ScoringServer bare(engine.get());
  const float score = 0.9f;
  const int label = 1;
  EXPECT_FALSE(bare.Feedback(&score, &label, 1));  // No monitor attached.
  bare.Shutdown();

  obs::QualityMonitor monitor(detector_->baseline(*urg_), ManualPublish());
  engine->SetQualityMonitor(&monitor);
  ScoringServer server(engine.get());
  EXPECT_TRUE(server.Feedback(&score, &label, 1));
  EXPECT_EQ(monitor.ComputeCalibration().labels, 1u);
}

}  // namespace
}  // namespace uv::infer
