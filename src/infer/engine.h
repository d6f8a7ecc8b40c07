#ifndef UV_INFER_ENGINE_H_
#define UV_INFER_ENGINE_H_

// Grad-free batched inference engines. An Engine is built once from a
// trained model ("Prepare"): it takes the model's trunk from the
// whole-city pass (core::WholeCityTrunk, the model's own layer forwards
// run layer by layer over the URG's shards), runs the globally-coupled
// rest under an ag::NoGradScope, where every op returns a constant node
// and no graph is kept, and caches every globally-coupled intermediate
// (trunk representations, cluster state) as plain tensors.
// Each scoring request then evaluates only the per-row tail for the
// requested region ids on raw tensors over reusable pooled workspaces. The
// tail never calls a layer, so steady-state scoring performs ~0 heap
// allocations per request (gated by bench_suite --alloc). The slave tail
// derives the gate's per-region filter one tile of rows at a time
// (GatedMlpForward), so no workspace holds n x P filter floats (P = 4,161
// at the default widths).
//
// Scores are bit-identical to the detector's Score path, whether the
// detector trained on the whole city or on sampled minibatches: both take
// the trunk from the same pass, the tail evaluates the same shared forward
// kernels (tensor/forward_ops.h), and every per-request operation is
// row-wise, so results do not depend on how requests are batched.

#include <memory>
#include <vector>

#include "core/cmsf_model.h"
#include "obs/quality.h"
#include "tensor/tensor.h"
#include "urg/urban_region_graph.h"

namespace uv::infer {

class Engine {
 public:
  virtual ~Engine() = default;

  virtual int num_regions() const = 0;

  // Scores region ids[0..n) into out[0..n). NOT thread-safe: the engine
  // owns reusable workspaces, so concurrent callers must serialize (the
  // ScoringServer's dispatcher thread is the intended single caller).
  virtual void ScoreInto(const int* ids, int n, float* out) = 0;

  // Convenience wrapper (allocates the result vector).
  std::vector<float> Score(const std::vector<int>& ids);

  // Attaches a quality monitor: every subsequent ScoreInto feeds the
  // batch's encoded region features (the gathered trunk rows — exactly
  // what the baseline in the checkpoint sketched) and scores into it.
  // nullptr detaches. The monitor must outlive the engine or be detached
  // first; observation is wait-free and allocation-free, so the serving
  // alloc gate holds with a monitor attached.
  void SetQualityMonitor(obs::QualityMonitor* monitor) { monitor_ = monitor; }
  obs::QualityMonitor* quality_monitor() const { return monitor_; }

 protected:
  // Called by implementations at the end of ScoreInto with the batch's
  // feature workspace (n x d row-major) and final scores.
  void ObserveQuality(const float* features, int n, int d,
                      const float* scores) {
    if (monitor_ != nullptr) monitor_->ObserveBatch(features, n, d, scores);
  }

 private:
  obs::QualityMonitor* monitor_ = nullptr;
};

// Engine for a trained CmsfModel over the given URG (whole-city
// semantics, matching the detector's Score under either plan). Pass the
// frozen stage-one assignment to serve the slave path (the config must
// also enable hierarchy + gate, mirroring PredictCmsf); pass null to serve
// the master path. The model and URG are only read during construction.
std::unique_ptr<Engine> MakeCmsfEngine(
    const core::CmsfModel& model,
    const core::CmsfModel::FrozenAssignment* frozen,
    const urg::UrbanRegionGraph& urg);

// Engine for baselines whose per-region tail is two dense layers over
// precomputed trunk features: hidden = relu(rows * w1 + b1), logits =
// hidden * w2 + b2 (one column), probability = sigmoid(logits). It is the
// CMSF engine's tail without the hierarchy.
std::unique_ptr<Engine> MakeDenseTailEngine(Tensor features, Tensor w1,
                                            Tensor b1, Tensor w2, Tensor b2);

}  // namespace uv::infer

#endif  // UV_INFER_ENGINE_H_
