// Method comparison: cross-validated evaluation of CMSF against three
// representative baselines (MLP, GAT, UVLens) on one synthetic city, using
// the paper's protocol (block-level 3-fold CV, AUC + top-p% metrics).
//
//   ./build/examples/method_comparison [scale] [epochs] [--json stats.json]
//                                      [--checkpoint model.uvck]
//                                      [--drift-report]
//
// --json dumps the cross-validation stats as a perf ledger through the
// same obs::Report writer the bench binaries use; the stdout table is
// unchanged whether or not the flag is given.
//
// --checkpoint exercises the UVCK save/load round trip after the table:
// a CMSF detector is trained on one block fold, saved to the given path,
// reloaded into a fresh detector, and both are scored on the held-out
// fold. The reloaded model must reproduce every score bit-for-bit (and
// therefore every metric); the binary exits non-zero if it does not.
//
// --drift-report replaces the comparison table with a self-checking
// model-quality demo: train a CMSF detector on one fold, save the v2
// checkpoint (which embeds the training-time quality baseline), reload
// it, and serve two cities through a ScoringServer with a QualityMonitor
// attached — the training city unchanged, then a copy whose POI features
// have been deterministically shifted. Prints a PSI/ECE summary table and
// exits non-zero unless the unshifted run reports PSI exactly 0 with no
// alert AND the shifted run trips the drift alert, so CI can run this
// flag directly as its drift leg.

#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "core/cmsf_detector.h"
#include "eval/metrics.h"
#include "eval/runner.h"
#include "eval/splits.h"
#include "infer/server.h"
#include "obs/quality.h"
#include "obs/report.h"
#include "synth/city.h"
#include "urg/urban_region_graph.h"
#include "util/table.h"

namespace {

// Train on fold 0, save, reload into a fresh detector, and require the
// reloaded model's held-out scores to match the trained model's exactly.
// Returns false (after printing the mismatch) if anything differs.
bool RunCheckpointRoundTrip(const uv::urg::UrbanRegionGraph& urg,
                            int epochs, const std::string& path) {
  uv::Rng rng(7);
  const auto folds =
      uv::eval::BlockKFold(urg.grid, urg.LabeledIds(), 3, 10, &rng);
  const auto& fold = folds[0];
  std::vector<int> train_labels(fold.train_ids.size());
  for (size_t i = 0; i < train_labels.size(); ++i) {
    train_labels[i] = urg.labels[fold.train_ids[i]];
  }
  std::vector<int> eval_labels(fold.test_ids.size());
  for (size_t i = 0; i < eval_labels.size(); ++i) {
    eval_labels[i] = urg.labels[fold.test_ids[i]];
  }

  uv::core::CmsfConfig cmsf;
  cmsf.num_clusters = 30;
  cmsf.master_epochs = epochs;
  uv::core::CmsfDetector trained(cmsf);
  trained.Train(urg, fold.train_ids, train_labels);
  const std::vector<float> scores = trained.Score(urg, fold.test_ids);

  if (auto status = trained.SaveModel(urg, path); !status.ok()) {
    std::fprintf(stderr, "checkpoint save failed: %s\n",
                 status.message().c_str());
    return false;
  }
  // A fresh detector with a default config: LoadModel validates the
  // checkpoint against this URG and adopts the saved config.
  uv::core::CmsfDetector reloaded(uv::core::CmsfConfig{});
  if (auto status = reloaded.LoadModel(urg, path); !status.ok()) {
    std::fprintf(stderr, "checkpoint load failed: %s\n",
                 status.message().c_str());
    return false;
  }
  const std::vector<float> reloaded_scores = reloaded.Score(urg, fold.test_ids);

  for (size_t i = 0; i < scores.size(); ++i) {
    if (scores[i] != reloaded_scores[i]) {
      std::fprintf(stderr,
                   "checkpoint round trip NOT bit-identical at eval row %zu "
                   "(%g vs %g)\n",
                   i, scores[i], reloaded_scores[i]);
      return false;
    }
  }
  const double auc = uv::eval::Auc(scores, eval_labels);
  const double reloaded_auc = uv::eval::Auc(reloaded_scores, eval_labels);
  std::printf(
      "checkpoint %s: round trip bit-identical over %zu held-out regions "
      "(AUC %.4f == %.4f)\n",
      path.c_str(), scores.size(), auc, reloaded_auc);
  return true;
}

// One serving leg of the drift report: score every region of `serve_urg`
// through a ScoringServer with a fresh QualityMonitor seeded from the
// checkpoint baseline, feed the labeled regions back as delayed ground
// truth, and return the resulting drift + calibration reports.
void ServeWithMonitor(const uv::core::CmsfDetector& detector,
                      const uv::obs::QualityBaseline& baseline,
                      const uv::urg::UrbanRegionGraph& serve_urg,
                      uv::obs::DriftReport* drift,
                      uv::obs::CalibrationReport* calib) {
  auto engine = uv::baselines::MakeEngine(detector, serve_urg);
  uv::obs::QualityMonitor monitor(baseline);
  engine->SetQualityMonitor(&monitor);
  uv::infer::ScoringServer server(engine.get());

  std::vector<int> all_ids(serve_urg.num_regions());
  std::iota(all_ids.begin(), all_ids.end(), 0);
  const std::vector<float> served = server.Score(all_ids);

  std::vector<float> fb_scores;
  std::vector<int> fb_labels;
  for (int id : serve_urg.LabeledIds()) {
    fb_scores.push_back(served[id]);
    fb_labels.push_back(serve_urg.labels[id]);
  }
  server.Feedback(fb_scores.data(), fb_labels.data(),
                  static_cast<int>(fb_labels.size()));
  monitor.Publish();
  *drift = monitor.ComputeDrift();
  *calib = monitor.ComputeCalibration();
  engine->SetQualityMonitor(nullptr);
}

// Self-checking drift demo (--drift-report): see the header comment.
bool RunDriftReport(const uv::urg::UrbanRegionGraph& urg, int epochs) {
  uv::Rng rng(7);
  const auto folds =
      uv::eval::BlockKFold(urg.grid, urg.LabeledIds(), 3, 10, &rng);
  const auto& fold = folds[0];
  std::vector<int> train_labels(fold.train_ids.size());
  for (size_t i = 0; i < train_labels.size(); ++i) {
    train_labels[i] = urg.labels[fold.train_ids[i]];
  }

  uv::core::CmsfConfig cmsf;
  cmsf.num_clusters = 30;
  cmsf.master_epochs = epochs;
  uv::core::CmsfDetector trained(cmsf);
  trained.Train(urg, fold.train_ids, train_labels);

  // Round-trip through the v2 checkpoint so the baseline the monitors use
  // is the one that actually rides inside the file.
  const std::string path = "/tmp/method_comparison_drift.uvck";
  if (auto status = trained.SaveModel(urg, path); !status.ok()) {
    std::fprintf(stderr, "drift report: save failed: %s\n",
                 status.message().c_str());
    return false;
  }
  uv::core::CmsfDetector reloaded(uv::core::CmsfConfig{});
  if (auto status = reloaded.LoadModel(urg, path); !status.ok()) {
    std::fprintf(stderr, "drift report: load failed: %s\n",
                 status.message().c_str());
    return false;
  }
  const uv::obs::QualityBaseline& baseline = reloaded.baseline(urg);

  // Leg 1: the training city unchanged. The monitor sees exactly the
  // distribution the baseline sketched, so PSI must be exactly zero.
  uv::obs::DriftReport clean_drift;
  uv::obs::CalibrationReport clean_calib;
  ServeWithMonitor(reloaded, baseline, urg, &clean_drift, &clean_calib);

  // Leg 2: the same city with every POI feature deterministically shifted
  // and rescaled — upstream drift that propagates through the encoder into
  // the region representations the monitor sketches.
  std::vector<int> all_ids(static_cast<size_t>(urg.num_regions()));
  std::iota(all_ids.begin(), all_ids.end(), 0);
  uv::Tensor poi, image;
  urg.GatherPoiRows(all_ids, &poi);
  urg.GatherImageRows(all_ids, &image);
  for (int64_t i = 0; i < poi.size(); ++i) poi[i] = poi[i] * 1.6f + 0.8f;
  uv::urg::UrbanRegionGraph shifted = urg;
  shifted.features = std::make_shared<uv::urg::ResidentFeatureStore>(
      std::move(poi), std::move(image));

  uv::obs::DriftReport shifted_drift;
  uv::obs::CalibrationReport shifted_calib;
  ServeWithMonitor(reloaded, baseline, shifted, &shifted_drift,
                   &shifted_calib);

  uv::TextTable table({"Serve run", "Feat PSI max", "Score PSI", "Score KL",
                       "ECE", "Prec@0.5", "Rec@0.5", "Alert"});
  auto add_row = [&](const char* name, const uv::obs::DriftReport& d,
                     const uv::obs::CalibrationReport& c) {
    char buf[7][32];
    std::snprintf(buf[0], sizeof(buf[0]), "%.6f", d.feature_psi_max);
    std::snprintf(buf[1], sizeof(buf[1]), "%.6f", d.score_psi);
    std::snprintf(buf[2], sizeof(buf[2]), "%.6f", d.score_kl);
    std::snprintf(buf[3], sizeof(buf[3]), "%.6f", c.ece);
    std::snprintf(buf[4], sizeof(buf[4]), "%.4f", c.precision);
    std::snprintf(buf[5], sizeof(buf[5]), "%.4f", c.recall);
    std::snprintf(buf[6], sizeof(buf[6]), "%s", d.alert ? "YES" : "no");
    table.AddRow({name, buf[0], buf[1], buf[2], buf[3], buf[4], buf[5],
                  buf[6]});
  };
  add_row("training city", clean_drift, clean_calib);
  add_row("shifted city", shifted_drift, shifted_calib);
  std::printf("\n");
  table.Print();
  std::printf("baseline ECE (training-time, from checkpoint): %.6f\n",
              clean_calib.baseline_ece);

  bool ok = true;
  if (clean_drift.feature_psi_max != 0.0 || clean_drift.score_psi != 0.0) {
    std::fprintf(stderr,
                 "FAIL: unshifted serve should report PSI exactly 0 "
                 "(got feature %.9f, score %.9f)\n",
                 clean_drift.feature_psi_max, clean_drift.score_psi);
    ok = false;
  }
  if (clean_drift.alert) {
    std::fprintf(stderr, "FAIL: unshifted serve raised the drift alert\n");
    ok = false;
  }
  if (!shifted_drift.alert) {
    std::fprintf(stderr,
                 "FAIL: shifted serve did not trip the drift alert "
                 "(feature PSI max %.6f, score PSI %.6f, threshold %.2f)\n",
                 shifted_drift.feature_psi_max, shifted_drift.score_psi,
                 uv::obs::QualityOptions::FromEnv().psi_alert);
    ok = false;
  }
  if (ok) {
    std::printf(
        "drift report: unshifted PSI exactly 0, shifted city tripped the "
        "alert (feature PSI max %.4f)\n",
        shifted_drift.feature_psi_max);
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string checkpoint_path;
  bool drift_report = false;
  double positional[2] = {0.015, 80.0};
  int npos = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--checkpoint") == 0 && i + 1 < argc) {
      checkpoint_path = argv[++i];
    } else if (std::strncmp(argv[i], "--checkpoint=", 13) == 0) {
      checkpoint_path = argv[i] + 13;
    } else if (std::strcmp(argv[i], "--drift-report") == 0) {
      drift_report = true;
    } else if (npos < 2) {
      positional[npos++] = std::atof(argv[i]);
    }
  }
  const double scale = positional[0];
  const int epochs = static_cast<int>(positional[1]);

  auto city = uv::synth::GenerateCity(uv::synth::ShenzhenLike(scale, 7));
  uv::urg::UrgOptions urg_options;
  auto urg = uv::urg::BuildUrg(city, urg_options);

  if (drift_report) {
    return RunDriftReport(urg, epochs) ? 0 : 1;
  }

  uv::eval::RunnerOptions runner;
  runner.num_folds = 3;

  uv::obs::Report report("method_comparison");
  report.SetConfig("scale", scale);
  report.SetConfig("epochs", static_cast<int64_t>(epochs));

  uv::TextTable table({"Method", "AUC", "R@3", "P@3", "F1@3"});
  for (const std::string method : {"MLP", "GAT", "UVLens", "CMSF"}) {
    auto stats = uv::eval::RunCrossValidation(
        urg,
        [&](uint64_t seed) {
          uv::baselines::TrainOptions options;
          options.epochs = epochs;
          options.seed = seed;
          uv::core::CmsfConfig cmsf;
          cmsf.num_clusters = 30;
          cmsf.master_epochs = epochs;
          return uv::baselines::MakeDetector(method, options, cmsf);
        },
        runner);
    uv::eval::AppendRunStats(&report, method, stats);
    table.AddRow({method, uv::FormatMeanStd(stats.auc.mean, stats.auc.std),
                  uv::FormatMeanStd(stats.recall3.mean, stats.recall3.std),
                  uv::FormatMeanStd(stats.precision3.mean, stats.precision3.std),
                  uv::FormatMeanStd(stats.f13.mean, stats.f13.std)});
    std::fprintf(stderr, "%s done\n", method.c_str());
  }
  std::printf("\n");
  table.Print();
  if (!json_path.empty() && report.WriteFile(json_path)) {
    std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  }
  if (!checkpoint_path.empty() &&
      !RunCheckpointRoundTrip(urg, epochs, checkpoint_path)) {
    return 1;
  }
  return 0;
}
