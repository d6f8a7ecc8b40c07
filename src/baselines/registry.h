#ifndef UV_BASELINES_REGISTRY_H_
#define UV_BASELINES_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/common.h"
#include "core/cmsf_config.h"
#include "eval/detector.h"
#include "infer/engine.h"

namespace uv::baselines {

// Detector names in the row order of the paper's Table II.
std::vector<std::string> AllDetectorNames();

// Builds a detector by name. Baselines take `options`; "CMSF" and its
// Fig. 5(a) variants ("CMSF-M", "CMSF-G", "CMSF-H") take `cmsf_config`
// (epochs/lr/seed are copied from `options` for uniformity).
std::unique_ptr<eval::Detector> MakeDetector(const std::string& name,
                                             const TrainOptions& options,
                                             const core::CmsfConfig& cmsf_config);

// Grad-free inference engine for a trained detector over the given URG.
// Supported for CMSF (and its ablation variants), GCN, and GAT; returns
// null for detectors without an engine implementation. The detector and
// URG must outlive construction only — the engine owns all cached state.
std::unique_ptr<infer::Engine> MakeEngine(const eval::Detector& detector,
                                          const urg::UrbanRegionGraph& urg);

}  // namespace uv::baselines

#endif  // UV_BASELINES_REGISTRY_H_
