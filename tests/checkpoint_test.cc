#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/cmsf_detector.h"
#include "core/config_codec.h"
#include "eval/splits.h"
#include "io/checkpoint.h"
#include "test_helpers.h"

namespace uv::core {
namespace {

// Shared fixture: one tiny URG + a trained CMSF detector + its saved
// checkpoint, built once (training dominates the suite's runtime).
class CheckpointTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    urg_ = new urg::UrbanRegionGraph(uv::testing::TinyUrg());
    Rng rng(3);
    auto folds = eval::BlockKFold(urg_->grid, urg_->LabeledIds(), 3, 8, &rng);
    fold_ = new eval::Fold(folds[0]);
    train_labels_ = new std::vector<int>();
    for (int id : fold_->train_ids) train_labels_->push_back(urg_->labels[id]);

    detector_ = new CmsfDetector(FastConfig());
    detector_->Train(*urg_, fold_->train_ids, *train_labels_);
    expected_ = new std::vector<float>(
        detector_->Score(*urg_, fold_->test_ids));
    // One file per process: ctest runs every case as its own process, in
    // parallel, and a case must never read a file another one is writing.
    path_ = new std::string(::testing::TempDir() + "/uvck_fixture_" +
                            std::to_string(::getpid()) + ".bin");
    ASSERT_TRUE(detector_->SaveModel(*urg_, *path_).ok());
  }

  static CmsfConfig FastConfig() {
    CmsfConfig config;
    config.hidden_dim = 16;
    config.image_reduce_dim = 16;
    config.num_clusters = 8;
    config.classifier_hidden = 8;
    config.context_dim = 4;
    config.master_epochs = 10;
    config.slave_epochs = 3;
    config.learning_rate = 5e-3;
    return config;
  }

  // Re-saves the fixture checkpoint with its frozen stage-one assignment
  // (the last three tensors: soft, hard, pseudo) altered by `mutate`, and
  // returns what LoadModel makes of it.
  static Status LoadWithFrozen(
      const std::function<void(Tensor* soft, Tensor* hard, Tensor* pseudo)>&
          mutate) {
    auto ck = io::LoadCheckpoint(*path_);
    EXPECT_TRUE(ck.ok());
    io::Checkpoint altered = std::move(ck).value();
    std::vector<Tensor>& t = altered.tensors;
    const size_t n = t.size();
    mutate(&t[n - 3], &t[n - 2], &t[n - 1]);
    return SaveAndLoad(altered, FastConfig(), "CMSF");
  }

  static Status SaveAndLoad(const io::Checkpoint& ck,
                            const CmsfConfig& config,
                            const std::string& name) {
    const std::string path =
        ::testing::TempDir() + "/uvck_frozen_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".bin";
    EXPECT_TRUE(io::SaveCheckpoint(path, ck).ok());
    CmsfDetector loaded(config, name);
    const Status status = loaded.LoadModel(*urg_, path);
    std::remove(path.c_str());
    return status;
  }

  static void TearDownTestSuite() { std::remove(path_->c_str()); }

  static urg::UrbanRegionGraph* urg_;
  static eval::Fold* fold_;
  static std::vector<int>* train_labels_;
  static CmsfDetector* detector_;
  static std::vector<float>* expected_;
  static std::string* path_;
};

urg::UrbanRegionGraph* CheckpointTest::urg_ = nullptr;
eval::Fold* CheckpointTest::fold_ = nullptr;
std::vector<int>* CheckpointTest::train_labels_ = nullptr;
CmsfDetector* CheckpointTest::detector_ = nullptr;
std::vector<float>* CheckpointTest::expected_ = nullptr;
std::string* CheckpointTest::path_ = nullptr;

TEST_F(CheckpointTest, ConfigCodecRoundTrip) {
  CmsfConfig config;
  config.image_reduce_dim = 96;
  config.hidden_dim = 48;
  config.maga_layers = 3;
  config.maga_heads = 4;
  config.maga_agg = nn::AggKind::kConcat;
  config.num_clusters = 123;
  config.temperature = 0.25f;
  config.gscm_agg = nn::AggKind::kAttention;
  config.classifier_hidden = 17;
  config.context_dim = 9;
  config.use_maga = false;
  config.use_hierarchy = true;
  config.use_gate = false;
  config.master_epochs = 77;
  config.slave_epochs = 13;
  config.learning_rate = 3.5e-4;
  config.lr_decay_per_epoch = 0.99;
  config.lambda = 0.7;
  config.pos_weight = 2.5;
  config.clip_norm = 1.25;
  config.seed = 0xdeadbeefULL;
  config.batch_size = 256;
  config.fanout = 12;

  auto decoded = DecodeCmsfConfig(EncodeCmsfConfig(config));
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  const CmsfConfig& got = decoded.value();
  EXPECT_EQ(got.image_reduce_dim, config.image_reduce_dim);
  EXPECT_EQ(got.hidden_dim, config.hidden_dim);
  EXPECT_EQ(got.maga_layers, config.maga_layers);
  EXPECT_EQ(got.maga_heads, config.maga_heads);
  EXPECT_EQ(got.maga_agg, config.maga_agg);
  EXPECT_EQ(got.num_clusters, config.num_clusters);
  EXPECT_EQ(got.temperature, config.temperature);
  EXPECT_EQ(got.gscm_agg, config.gscm_agg);
  EXPECT_EQ(got.classifier_hidden, config.classifier_hidden);
  EXPECT_EQ(got.context_dim, config.context_dim);
  EXPECT_EQ(got.use_maga, config.use_maga);
  EXPECT_EQ(got.use_hierarchy, config.use_hierarchy);
  EXPECT_EQ(got.use_gate, config.use_gate);
  EXPECT_EQ(got.master_epochs, config.master_epochs);
  EXPECT_EQ(got.slave_epochs, config.slave_epochs);
  EXPECT_EQ(got.learning_rate, config.learning_rate);
  EXPECT_EQ(got.lr_decay_per_epoch, config.lr_decay_per_epoch);
  EXPECT_EQ(got.lambda, config.lambda);
  EXPECT_EQ(got.pos_weight, config.pos_weight);
  EXPECT_EQ(got.clip_norm, config.clip_norm);
  EXPECT_EQ(got.seed, config.seed);
  EXPECT_EQ(got.batch_size, config.batch_size);
  EXPECT_EQ(got.fanout, config.fanout);
}

TEST_F(CheckpointTest, ConfigCodecRejectsMalformedBlobs) {
  const std::vector<uint8_t> blob = EncodeCmsfConfig(CmsfConfig());
  // Every strict prefix must be rejected (no partial decode).
  for (size_t len = 0; len < blob.size(); ++len) {
    std::vector<uint8_t> truncated(blob.begin(), blob.begin() + len);
    EXPECT_FALSE(DecodeCmsfConfig(truncated).ok()) << "prefix " << len;
  }
  // Trailing bytes are rejected too.
  std::vector<uint8_t> padded = blob;
  padded.push_back(0);
  EXPECT_FALSE(DecodeCmsfConfig(padded).ok());
  // Unknown codec version.
  std::vector<uint8_t> wrong_version = blob;
  wrong_version[0] = 0xff;
  EXPECT_FALSE(DecodeCmsfConfig(wrong_version).ok());
}

TEST_F(CheckpointTest, FingerprintMatchesSelfOnly) {
  const io::UrgFingerprint a = io::UrgFingerprint::FromUrg(*urg_);
  EXPECT_TRUE(a.Matches(io::UrgFingerprint::FromUrg(*urg_)));
  EXPECT_EQ(a.num_regions, urg_->num_regions());

  const urg::UrbanRegionGraph other = uv::testing::TinyUrg(/*seed=*/12);
  const io::UrgFingerprint b = io::UrgFingerprint::FromUrg(other);
  EXPECT_FALSE(a.Matches(b));
  EXPECT_NE(a.Hash(), b.Hash());
}

TEST_F(CheckpointTest, RoundTripIsBitIdentical) {
  // Fresh detector with a different seed and different (to-be-overwritten)
  // shape knobs: LoadModel must adopt the checkpoint's config and reproduce
  // the trained predictions bit-for-bit.
  CmsfConfig other = FastConfig();
  other.seed = 999;
  other.hidden_dim = 32;
  CmsfDetector loaded(other);
  ASSERT_TRUE(loaded.LoadModel(*urg_, *path_).ok());
  const auto got = loaded.Score(*urg_, fold_->test_ids);
  ASSERT_EQ(got.size(), expected_->size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], (*expected_)[i]) << "prediction " << i;
  }
}

TEST_F(CheckpointTest, RejectsWrongModelName) {
  CmsfDetector variant(FastConfig(), "CMSF-G");
  const Status status = variant.LoadModel(*urg_, *path_);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("CMSF-G"), std::string::npos);
}

TEST_F(CheckpointTest, RejectsWrongUrgFingerprint) {
  const urg::UrbanRegionGraph other = uv::testing::TinyUrg(/*seed=*/12);
  CmsfDetector loaded(FastConfig());
  EXPECT_FALSE(loaded.LoadModel(other, *path_).ok());
}

TEST_F(CheckpointTest, RejectsUnsupportedVersion) {
  auto ck = io::LoadCheckpoint(*path_);
  ASSERT_TRUE(ck.ok());
  io::Checkpoint bad = std::move(ck).value();
  bad.version = 99;
  // The writer itself refuses unknown versions...
  const std::string bad_path = ::testing::TempDir() + "/uvck_badver.bin";
  EXPECT_FALSE(io::SaveCheckpoint(bad_path, bad).ok());
  // ...so forge one on disk by patching the version field after the magic.
  std::vector<char> bytes;
  {
    std::ifstream in(*path_, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 8u);
  const int32_t forged = 99;
  std::memcpy(bytes.data() + 4, &forged, sizeof(forged));
  {
    std::ofstream out(bad_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const auto loaded = io::LoadCheckpoint(bad_path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
  std::remove(bad_path.c_str());
}

TEST_F(CheckpointTest, RejectsTruncationAndTrailingBytes) {
  std::vector<char> bytes;
  {
    std::ifstream in(*path_, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 64u);
  const std::string tmp = ::testing::TempDir() + "/uvck_mangled.bin";
  // Truncations at several depths: header, fingerprint, tensor payload.
  for (const size_t keep :
       {size_t{2}, size_t{10}, size_t{40}, bytes.size() / 2,
        bytes.size() - 1}) {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(keep));
    out.close();
    EXPECT_FALSE(io::LoadCheckpoint(tmp).ok()) << "kept " << keep;
  }
  // A trailing byte after the tensor list is also a corrupt file.
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.put('\0');
  }
  EXPECT_FALSE(io::LoadCheckpoint(tmp).ok());
  std::remove(tmp.c_str());
}

TEST_F(CheckpointTest, RejectsV1FileWithActionableMessage) {
  // A v1 file is a current file with version 1 in the schema field: the
  // loader refuses at the version check, before interpreting anything the
  // schemas disagree on. The message must be actionable — found and
  // expected versions, the failing offset, and the remedy.
  std::vector<char> bytes;
  {
    std::ifstream in(*path_, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 8u);
  const int32_t v1 = 1;
  std::memcpy(bytes.data() + 4, &v1, sizeof(v1));
  const std::string v1_path = ::testing::TempDir() + "/uvck_v1.bin";
  {
    std::ofstream out(v1_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const auto loaded = io::LoadCheckpoint(v1_path);
  ASSERT_FALSE(loaded.ok());
  const std::string& msg = loaded.status().message();
  EXPECT_NE(msg.find("schema version 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("expects version 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("byte offset 4"), std::string::npos) << msg;
  EXPECT_NE(msg.find("re-save"), std::string::npos) << msg;
  std::remove(v1_path.c_str());
}

TEST_F(CheckpointTest, TruncationErrorsNameTheFailingOffset) {
  std::vector<char> bytes;
  {
    std::ifstream in(*path_, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  const std::string tmp = ::testing::TempDir() + "/uvck_offset.bin";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), 10);
  }
  const auto loaded = io::LoadCheckpoint(tmp);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("byte offset"), std::string::npos)
      << loaded.status().message();
  std::remove(tmp.c_str());
}

TEST_F(CheckpointTest, BaselineRoundTripsThroughCheckpoint) {
  auto ck = io::LoadCheckpoint(*path_);
  ASSERT_TRUE(ck.ok()) << ck.status().message();
  const obs::QualityBaseline& base = ck.value().baseline;
  ASSERT_FALSE(base.empty());
  // Every trunk column was sketched over every region; the score histogram
  // covers all regions; the calibration bins cover the training ids.
  const auto n = static_cast<uint64_t>(urg_->num_regions());
  for (const obs::QualityBaseline::Column& col : base.columns) {
    uint64_t total = 0;
    for (const uint64_t c : col.counts) total += c;
    EXPECT_EQ(total, n);
  }
  uint64_t score_total = 0;
  for (const uint64_t c : base.score_counts) score_total += c;
  EXPECT_EQ(score_total, n);
  uint64_t calib_total = 0;
  for (const uint64_t c : base.calib_count) calib_total += c;
  EXPECT_EQ(calib_total, fold_->train_ids.size());
  // And the on-disk baseline is exactly the detector's cached one.
  const obs::QualityBaseline& live = detector_->baseline(*urg_);
  ASSERT_EQ(live.columns.size(), base.columns.size());
  for (size_t c = 0; c < live.columns.size(); ++c) {
    for (int e = 0; e < obs::QualityBaseline::kFeatureBins - 1; ++e) {
      EXPECT_EQ(live.columns[c].edges[e], base.columns[c].edges[e]);
    }
    for (int b = 0; b < obs::QualityBaseline::kFeatureBins; ++b) {
      EXPECT_EQ(live.columns[c].counts[b], base.columns[c].counts[b]);
    }
    EXPECT_EQ(live.columns[c].mean, base.columns[c].mean);
    EXPECT_EQ(live.columns[c].stdev, base.columns[c].stdev);
  }
}

TEST(CheckpointBaselineIo, SyntheticRoundTripAndCorruption) {
  // Direct io-layer round trip with a hand-built baseline (empty model
  // name/config, so the section's file offsets are deterministic).
  io::Checkpoint ck;
  Tensor t(1, 3);
  t.at(0, 0) = 1.0f;
  t.at(0, 1) = 2.0f;
  t.at(0, 2) = 3.0f;
  ck.tensors.push_back(std::move(t));
  obs::QualityBaseline base;
  base.columns.resize(2);
  for (int c = 0; c < 2; ++c) {
    for (int e = 0; e < obs::QualityBaseline::kFeatureBins - 1; ++e) {
      base.columns[c].edges[e] = static_cast<float>(c + e) * 0.25f;
    }
    for (int b = 0; b < obs::QualityBaseline::kFeatureBins; ++b) {
      base.columns[c].counts[b] = static_cast<uint64_t>(10 * c + b);
    }
    base.columns[c].mean = 0.5f + static_cast<float>(c);
    base.columns[c].stdev = 1.5f;
  }
  for (int b = 0; b < obs::QualityBaseline::kScoreBins; ++b) {
    base.score_counts[b] = static_cast<uint64_t>(b * b);
  }
  for (int b = 0; b < obs::QualityBaseline::kCalibBins; ++b) {
    base.calib_count[b] = static_cast<uint64_t>(b + 1);
    base.calib_score_sum[b] = 0.05 + 0.1 * b;
    base.calib_pos[b] = static_cast<uint64_t>(b);
  }
  ck.baseline = base;

  const std::string path = ::testing::TempDir() + "/uvck_baseline_io.bin";
  ASSERT_TRUE(io::SaveCheckpoint(path, ck).ok());
  auto loaded = io::LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  const obs::QualityBaseline& got = loaded.value().baseline;
  ASSERT_EQ(got.columns.size(), base.columns.size());
  for (size_t c = 0; c < base.columns.size(); ++c) {
    for (int e = 0; e < obs::QualityBaseline::kFeatureBins - 1; ++e) {
      EXPECT_EQ(got.columns[c].edges[e], base.columns[c].edges[e]);
    }
    for (int b = 0; b < obs::QualityBaseline::kFeatureBins; ++b) {
      EXPECT_EQ(got.columns[c].counts[b], base.columns[c].counts[b]);
    }
    EXPECT_EQ(got.columns[c].mean, base.columns[c].mean);
    EXPECT_EQ(got.columns[c].stdev, base.columns[c].stdev);
  }
  for (int b = 0; b < obs::QualityBaseline::kScoreBins; ++b) {
    EXPECT_EQ(got.score_counts[b], base.score_counts[b]);
  }
  for (int b = 0; b < obs::QualityBaseline::kCalibBins; ++b) {
    EXPECT_EQ(got.calib_count[b], base.calib_count[b]);
    EXPECT_EQ(got.calib_score_sum[b], base.calib_score_sum[b]);
    EXPECT_EQ(got.calib_pos[b], base.calib_pos[b]);
  }

  // Flip one byte inside the baseline blob: the section hash must catch
  // it. With empty name/config the blob starts at byte 77 (4 magic + 4
  // version + 4 + 4 empty blobs + 48 fingerprint + 8 hash + 1 flag +
  // 4 length).
  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 90u);
  bytes[80] = static_cast<char>(bytes[80] ^ 0x40);
  const std::string bad = ::testing::TempDir() + "/uvck_baseline_bad.bin";
  {
    std::ofstream out(bad, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const auto corrupt = io::LoadCheckpoint(bad);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_NE(corrupt.status().message().find("baseline"), std::string::npos)
      << corrupt.status().message();
  std::remove(bad.c_str());
  std::remove(path.c_str());
}

// The frozen assignment feeds the MS-Gate context and the GSCM's frozen
// forward, so LoadModel refuses one that SaveModel could not have written.
TEST_F(CheckpointTest, RejectsNegativeHardClusterId) {
  const Status status = LoadWithFrozen(
      [](Tensor*, Tensor* hard, Tensor*) { hard->at(0, 4) = -1.0f; });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.message();
}

TEST_F(CheckpointTest, RejectsHardClusterIdPastK) {
  const Status status = LoadWithFrozen(
      [](Tensor*, Tensor* hard, Tensor*) { hard->at(0, 4) = 1e10f; });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.message();
}

TEST_F(CheckpointTest, RejectsNanHardClusterId) {
  const Status status = LoadWithFrozen([](Tensor*, Tensor* hard, Tensor*) {
    hard->at(0, 4) = std::numeric_limits<float>::quiet_NaN();
  });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.message();
}

TEST_F(CheckpointTest, RejectsFractionalHardClusterId) {
  const Status status = LoadWithFrozen(
      [](Tensor*, Tensor* hard, Tensor*) { hard->at(0, 4) = 0.5f; });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.message();
}

TEST_F(CheckpointTest, RejectsHardAssignmentOfWrongLength) {
  const Status status = LoadWithFrozen(
      [](Tensor*, Tensor* hard, Tensor*) { *hard = Tensor(1, 3); });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.message();
}

TEST_F(CheckpointTest, RejectsSoftAssignmentOfWrongRowCount) {
  const Status status = LoadWithFrozen([](Tensor* soft, Tensor*, Tensor*) {
    *soft = Tensor(3, soft->cols());
  });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.message();
}

TEST_F(CheckpointTest, RejectsNonFiniteSoftAssignment) {
  const Status status = LoadWithFrozen([](Tensor* soft, Tensor*, Tensor*) {
    soft->at(2, 1) = std::numeric_limits<float>::infinity();
  });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.message();
}

TEST_F(CheckpointTest, RejectsPseudoLabelsOfWrongLength) {
  const Status status = LoadWithFrozen(
      [](Tensor*, Tensor*, Tensor* pseudo) { *pseudo = Tensor(1, 2); });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.message();
}

TEST_F(CheckpointTest, RejectsPseudoLabelOutsideZeroOne) {
  const Status status = LoadWithFrozen(
      [](Tensor*, Tensor*, Tensor* pseudo) { pseudo->at(0, 1) = 2.0f; });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.message();
}

// Without the gate SaveModel writes the empty frozen state (and loads it
// back); a gate-less checkpoint carrying an assignment is refused.
TEST_F(CheckpointTest, RejectsFrozenAssignmentWithoutGate) {
  CmsfConfig config = FastConfig();
  config.use_gate = false;
  config.master_epochs = 2;
  CmsfDetector gateless(config, "CMSF-G");
  gateless.Train(*urg_, fold_->train_ids, *train_labels_);
  const std::string path = ::testing::TempDir() + "/uvck_gateless.bin";
  ASSERT_TRUE(gateless.SaveModel(*urg_, path).ok());
  auto ck = io::LoadCheckpoint(path);
  std::remove(path.c_str());
  ASSERT_TRUE(ck.ok());
  io::Checkpoint altered = std::move(ck).value();
  EXPECT_TRUE(SaveAndLoad(altered, config, "CMSF-G").ok());

  const int n = urg_->num_regions();
  std::vector<Tensor>& t = altered.tensors;
  const size_t size = t.size();
  t[size - 3] = Tensor(n, config.num_clusters);
  t[size - 2] = Tensor(1, n);
  t[size - 1] = Tensor(1, config.num_clusters);
  const Status status = SaveAndLoad(altered, config, "CMSF-G");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.message();
}

TEST_F(CheckpointTest, LoadedDetectorCanSaveAgainIdentically) {
  // Save -> load -> save must produce a byte-identical file: nothing about
  // the checkpoint depends on in-memory history.
  CmsfDetector loaded(FastConfig());
  ASSERT_TRUE(loaded.LoadModel(*urg_, *path_).ok());
  const std::string again = ::testing::TempDir() + "/uvck_again.bin";
  ASSERT_TRUE(loaded.SaveModel(*urg_, again).ok());
  std::ifstream a(*path_, std::ios::binary), b(again, std::ios::binary);
  const std::vector<char> bytes_a((std::istreambuf_iterator<char>(a)),
                                  std::istreambuf_iterator<char>());
  const std::vector<char> bytes_b((std::istreambuf_iterator<char>(b)),
                                  std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes_a, bytes_b);
  std::remove(again.c_str());
}

}  // namespace
}  // namespace uv::core
