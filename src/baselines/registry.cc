#include "baselines/registry.h"

#include "baselines/graph_baseline.h"
#include "baselines/imgagn_baseline.h"
#include "baselines/mlp_baseline.h"
#include "baselines/mmre_baseline.h"
#include "baselines/muvfcn_baseline.h"
#include "baselines/uvlens_baseline.h"
#include "core/cmsf_detector.h"
#include "urg/neighbor_sampler.h"
#include "util/check.h"

namespace uv::baselines {

std::vector<std::string> AllDetectorNames() {
  return {"MLP",    "GCN",    "GAT",    "MMRE",
          "UVLens", "MUVFCN", "ImGAGN", "CMSF"};
}

std::unique_ptr<eval::Detector> MakeDetector(
    const std::string& name, const TrainOptions& base_options,
    const core::CmsfConfig& cmsf_config) {
  // UV_BATCH / UV_FANOUT override the caller's minibatch settings so any
  // tool built on the registry can be switched to neighborhood-sampled
  // training without a flag of its own.
  TrainOptions options = base_options;
  {
    urg::MinibatchConfig mb;
    mb.batch_size = options.batch_size;
    mb.fanout = options.fanout;
    mb = urg::MinibatchConfig::FromEnv(mb);
    options.batch_size = mb.batch_size;
    options.fanout = mb.fanout;
  }
  if (name == "MLP") return std::make_unique<MlpBaseline>(options);
  if (name == "GCN") return std::make_unique<GcnBaseline>(options);
  if (name == "GAT") return std::make_unique<GatBaseline>(options);
  if (name == "MMRE") return std::make_unique<MmreBaseline>(options);
  if (name == "UVLens") return std::make_unique<UvLensBaseline>(options);
  if (name == "MUVFCN") return std::make_unique<MuvfcnBaseline>(options);
  if (name == "ImGAGN") return std::make_unique<ImGagnBaseline>(options);

  core::CmsfConfig cfg = cmsf_config;
  cfg.learning_rate = options.learning_rate;
  cfg.master_epochs = options.epochs;
  cfg.pos_weight = options.pos_weight;
  cfg.seed = options.seed;
  cfg.batch_size = options.batch_size;
  cfg.fanout = options.fanout;
  if (name == "CMSF") {
    return std::make_unique<core::CmsfDetector>(cfg, "CMSF");
  }
  if (name == "CMSF-M") {
    cfg.use_maga = false;
    return std::make_unique<core::CmsfDetector>(cfg, "CMSF-M");
  }
  if (name == "CMSF-G") {
    cfg.use_gate = false;
    return std::make_unique<core::CmsfDetector>(cfg, "CMSF-G");
  }
  if (name == "CMSF-H") {
    cfg.use_hierarchy = false;
    cfg.use_gate = false;
    return std::make_unique<core::CmsfDetector>(cfg, "CMSF-H");
  }
  UV_CHECK(false);
  return nullptr;
}

std::unique_ptr<infer::Engine> MakeEngine(const eval::Detector& detector,
                                          const urg::UrbanRegionGraph& urg) {
  if (const auto* cmsf = dynamic_cast<const core::CmsfDetector*>(&detector)) {
    UV_CHECK(cmsf->model() != nullptr);  // Train or LoadModel first.
    // Mirror Score: the frozen assignment participates only when the
    // hierarchy exists (MakeCmsfEngine further requires the gate for the
    // slave path).
    const core::CmsfModel::FrozenAssignment* frozen =
        cmsf->model()->config().use_hierarchy ? &cmsf->frozen() : nullptr;
    return infer::MakeCmsfEngine(*cmsf->model(), frozen, urg);
  }
  if (const auto* gcn = dynamic_cast<const GcnBaseline*>(&detector)) {
    return gcn->MakeEngine(urg);
  }
  if (const auto* gat = dynamic_cast<const GatBaseline*>(&detector)) {
    return gat->MakeEngine(urg);
  }
  return nullptr;
}

}  // namespace uv::baselines
