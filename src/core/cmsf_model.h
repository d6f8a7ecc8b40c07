#ifndef UV_CORE_CMSF_MODEL_H_
#define UV_CORE_CMSF_MODEL_H_

#include <memory>
#include <vector>

#include "core/batch_plan.h"
#include "core/cmsf_config.h"
#include "nn/gat.h"
#include "nn/gscm.h"
#include "nn/linear.h"
#include "nn/ms_gate.h"
#include "urg/urban_region_graph.h"

namespace uv::core {

// The Contextual Master-Slave Framework (paper Section V): a hierarchical
// GNN master model (MAGA + GSCM + MLP classifier) trained in stage one, and
// the MS-Gate slave derivation trained in stage two. Its representation
// trunk is a LayeredTrunk: the image reduction as the stem, then one MAGA
// layer (CMSF-M: one pair of per-modality GAT layers) per graph layer.
class CmsfModel : public LayeredTrunk {
 public:
  CmsfModel(const CmsfConfig& config, int poi_dim, int image_dim, Rng* rng);

  struct ForwardResult {
    ag::VarPtr region_repr;   // x~' fed to the classifier.
    ag::VarPtr master_logits; // (N x 1) master-model logits.
    ag::VarPtr assignment;    // Soft B (null when hierarchy disabled).
    std::vector<int> hard_assignment;
    ag::VarPtr cluster_repr;  // H' (null when hierarchy disabled).
  };

  // Forward pass of the master path over one batch's (sub)graph. When
  // `frozen` is non-null the GSCM membership is pinned to the given
  // stage-one assignment rows, one per batch node (slave stage semantics).
  struct FrozenAssignment {
    Tensor soft;             // B at the end of master training.
    std::vector<int> hard;   // B~ (argmax) at the end of master training.
    std::vector<int> pseudo_labels;  // Cluster pseudo labels y^h (eq. 16).
  };
  ForwardResult Forward(const BatchInputs& inputs,
                        const FrozenAssignment* frozen) const;
  // What Forward runs after the trunk: GSCM and the classifier over trunk
  // rows `fused`. The cluster sums run over every row of `fused`, so a
  // whole-city trunk (WholeCityTrunk) gives the paper's eq. 10.
  ForwardResult Head(ag::VarPtr fused, const FrozenAssignment* frozen) const;

  // Slave-path logits (eq. 22) given a master forward result; requires the
  // hierarchy and gate to be enabled. With `rows`, only those logits are
  // computed and the rest are zero (nn::MsGate::Forward).
  ag::VarPtr SlaveLogits(const ForwardResult& master,
                         ag::VarPtr* out_inclusion,
                         const std::vector<int>* rows = nullptr) const;

  // Parameter sets: theta_1 (master) and theta_2 \ theta_1 (gate + pseudo
  // predictor), mirroring Algorithms 1 and 2.
  std::vector<ag::VarPtr> MasterParams() const;
  std::vector<ag::VarPtr> GateParams() const;
  std::vector<ag::VarPtr> AllParams() const;

  const CmsfConfig& config() const { return config_; }
  const nn::Mlp& classifier() const { return *classifier_; }
  const nn::MsGate& gate() const { return *gate_; }
  const nn::Gscm* gscm() const { return gscm_.get(); }
  int gscm_in_dim() const { return gscm_in_dim_; }
  int classifier_in() const { return classifier_in_; }

  // The trunk's parts (LayeredTrunk). Trunk(inputs) returns x^, the fused
  // multi-modal representation entering GSCM; Forward runs it first, and
  // the freeze sweep, PredictCmsf, the inference engine and the quality
  // baseline take it from WholeCityTrunk.
  TrunkRows Stem(const ag::VarPtr& poi,
                 const ag::VarPtr& image) const override;
  int num_layers() const override { return config_.maga_layers; }
  TrunkRows LayerStep(int layer, const TrunkRows& in,
                      const nn::GraphContext& ctx) const override;

 private:
  CmsfConfig config_;
  int gscm_in_dim_ = 0;      // Width of x^.
  int classifier_in_ = 0;    // Width of x~'.

  std::unique_ptr<nn::Linear> image_reduce_;
  std::vector<nn::MagaLayer> maga_;
  // CMSF-M replacement trunk: per-modality vanilla GAT stacks.
  std::vector<nn::GatLayer> gat_p_;
  std::vector<nn::GatLayer> gat_i_;
  std::unique_ptr<nn::Gscm> gscm_;
  std::unique_ptr<nn::Mlp> classifier_;
  std::unique_ptr<nn::MsGate> gate_;
};

// Both training stages run over a BatchPlan (core/batch_plan.h) whose
// train set is the labeled training regions: the whole city as one batch,
// built once and reused by both stages, or neighborhood-sampled
// minibatches. The freeze sweep and PredictCmsf run the whole-city pass
// (WholeCityTrunk) under either plan.

// Stage-one training (Algorithm 1): optimizes the master model with BCE on
// the plan's loss rows. When the gate will consume it, the learned
// membership is then frozen over every region by FreezeAssignment with the
// plan's train set; gate-less variants skip that sweep and return an empty
// assignment. Also reports mean seconds per epoch.
struct MasterTrainResult {
  CmsfModel::FrozenAssignment frozen;
  double seconds_per_epoch = 0.0;
  double final_loss = 0.0;
  // Monotonic wall time of every epoch, in order; seconds_per_epoch is the
  // mean of these. Kept per epoch so callers can report p50/p95.
  std::vector<double> epoch_seconds;
  // Wall time of the freeze sweep after the last epoch (0 when skipped).
  double freeze_seconds = 0.0;
};
MasterTrainResult TrainMaster(CmsfModel* model,
                              const urg::UrbanRegionGraph& urg,
                              BatchPlan* plan);

// The end-of-stage-one freeze sweep: GSCM's assignment alone (Gscm::Assign,
// eq. 9) over the whole-city trunk (WholeCityTrunk), so no cluster tail,
// region representation or classifier output is built, with pseudo labels
// (eq. 16) from the given training labels only. Requires the hierarchy.
CmsfModel::FrozenAssignment FreezeAssignment(
    const CmsfModel& model, const urg::UrbanRegionGraph& urg,
    const std::vector<int>& train_ids, const std::vector<int>& train_labels);

// Stage-two training (Algorithm 2): optimizes theta_2 with the joint loss
// L'_c + lambda * L_p, the GSCM membership of every batch node pinned to
// its frozen row. No-op when the gate is disabled.
struct SlaveTrainResult {
  double seconds_per_epoch = 0.0;
  double final_loss = 0.0;
  std::vector<double> epoch_seconds;  // As in MasterTrainResult.
};
SlaveTrainResult TrainSlave(CmsfModel* model,
                            const urg::UrbanRegionGraph& urg,
                            BatchPlan* plan,
                            const CmsfModel::FrozenAssignment& frozen);

// The clusters the slave PU rank loss (eq. 17) ranks on `batch`, split by
// pseudo label into C1 (`positive`) and C0 (`unlabeled`). The whole-city
// batch ranks all K clusters, as the paper does. A sampled batch ranks
// only the clusters its nodes populate: cluster representations aggregate
// over the batch's regions, so the rest are all-zero and ranking their
// inclusion scores would only inject noise.
void SlavePuClusters(const Batch& batch,
                     const CmsfModel::FrozenAssignment& frozen,
                     std::vector<int>* positive, std::vector<int>* unlabeled);

// Inference (Section V-C): probabilities for eval_ids, using the slave
// path when enabled, the master path otherwise, over the whole city's
// trunk rows `city_trunk` (WholeCityTrunk), under an ag::NoGradScope. So
// the GSCM cluster sums cover the whole city however the model was
// trained, and the scores are the inference engine's. The row-wise gate
// runs on the eval_ids rows only.
std::vector<float> PredictCmsf(const CmsfModel& model,
                               const ag::VarPtr& city_trunk,
                               const CmsfModel::FrozenAssignment* frozen,
                               const std::vector<int>& eval_ids);
// The same, running WholeCityTrunk over `urg` first.
std::vector<float> PredictCmsf(const CmsfModel& model,
                               const urg::UrbanRegionGraph& urg,
                               const CmsfModel::FrozenAssignment* frozen,
                               const std::vector<int>& eval_ids);

}  // namespace uv::core

#endif  // UV_CORE_CMSF_MODEL_H_
