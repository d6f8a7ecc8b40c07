#include "core/cmsf_model.h"

#include <cstring>
#include <memory>
#include <numeric>

#include "autograd/ops.h"
#include "autograd/optimizer.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/timer.h"

namespace uv::core {
namespace {

// The frozen assignment a batch's forward pins: the whole-city batch's
// rows are the regions in id order, so it pins `frozen` itself; a sampled
// batch pins the rows of its nodes (row i of *slice = frozen row of
// nodes[i]).
const CmsfModel::FrozenAssignment* PinFrozen(
    const Batch& batch, const CmsfModel::FrozenAssignment& frozen,
    CmsfModel::FrozenAssignment* slice) {
  if (batch.whole_city) return &frozen;
  const std::vector<int>& nodes = batch.inputs->nodes;
  const int k = frozen.soft.cols();
  slice->soft = Tensor::Uninit(static_cast<int>(nodes.size()), k);
  slice->hard.resize(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    std::memcpy(slice->soft.row(static_cast<int>(i)),
                frozen.soft.row(nodes[i]),
                sizeof(float) * static_cast<size_t>(k));
    slice->hard[i] = frozen.hard[nodes[i]];
  }
  slice->pseudo_labels = frozen.pseudo_labels;
  return slice;
}

}  // namespace

CmsfModel::CmsfModel(const CmsfConfig& config, int poi_dim, int image_dim,
                     Rng* rng)
    : config_(config) {
  UV_CHECK_GT(config.maga_layers, 0);
  image_reduce_ = std::make_unique<nn::Linear>(
      image_dim, config.image_reduce_dim, rng);

  int width = 0;
  if (config.use_maga) {
    int in_p = poi_dim;
    int in_i = config.image_reduce_dim;
    for (int l = 0; l < config.maga_layers; ++l) {
      maga_.emplace_back(in_p, in_i, config.hidden_dim, config.maga_heads,
                         config.maga_agg, rng);
      in_p = in_i = maga_.back().out_width();
    }
    width = maga_.back().out_width();
  } else {
    // CMSF-M: vanilla GAT stacks per modality, no inter-modal context.
    int in_p = poi_dim;
    int in_i = config.image_reduce_dim;
    for (int l = 0; l < config.maga_layers; ++l) {
      gat_p_.emplace_back(in_p, config.hidden_dim, config.maga_heads, rng);
      gat_i_.emplace_back(in_i, config.hidden_dim, config.maga_heads, rng);
      in_p = in_i = config.hidden_dim;
    }
    width = config.hidden_dim;
  }
  gscm_in_dim_ = 2 * width;  // x^ = x^P ⊕ x^I.

  if (config.use_hierarchy) {
    nn::Gscm::Options gopt;
    gopt.in_dim = gscm_in_dim_;
    gopt.num_clusters = config.num_clusters;
    gopt.temperature = config.temperature;
    gopt.agg = config.gscm_agg;
    gscm_ = std::make_unique<nn::Gscm>(gopt, rng);
    classifier_in_ = gscm_->out_width();
  } else {
    classifier_in_ = gscm_in_dim_;
  }

  classifier_ = std::make_unique<nn::Mlp>(classifier_in_,
                                          config.classifier_hidden, 1, rng);

  if (config.use_hierarchy && config.use_gate) {
    nn::MsGate::Options mopt;
    mopt.num_clusters = config.num_clusters;
    mopt.cluster_repr_dim = gscm_in_dim_;
    mopt.context_dim = config.context_dim;
    mopt.classifier_in = classifier_in_;
    mopt.classifier_hidden = config.classifier_hidden;
    gate_ = std::make_unique<nn::MsGate>(mopt, rng);
  }
}

TrunkRows CmsfModel::Stem(const ag::VarPtr& poi,
                          const ag::VarPtr& image) const {
  return {poi, image_reduce_->Forward(image, kern::Activation::kRelu)};
}

TrunkRows CmsfModel::LayerStep(int layer, const TrunkRows& in,
                               const nn::GraphContext& ctx) const {
  obs::SpanGuard span("maga_layer", obs::SpanLevel::kFine, "layer", layer);
  if (config_.use_maga) {
    auto out = maga_[layer].Forward(in.poi, in.image, ctx);
    return {out.p, out.i};
  }
  return {ag::Relu(gat_p_[layer].Forward(in.poi, ctx)),
          ag::Relu(gat_i_[layer].Forward(in.image, ctx))};
}

CmsfModel::ForwardResult CmsfModel::Forward(
    const BatchInputs& inputs, const FrozenAssignment* frozen) const {
  obs::SpanGuard span("forward", obs::SpanLevel::kCoarse);
  return Head(Trunk(inputs), frozen);
}

CmsfModel::ForwardResult CmsfModel::Head(
    ag::VarPtr fused, const FrozenAssignment* frozen) const {
  ForwardResult result;
  if (config_.use_hierarchy) {
    obs::SpanGuard gscm_span("gscm", obs::SpanLevel::kFine);
    nn::Gscm::Output g =
        frozen != nullptr
            ? gscm_->ForwardFrozen(fused, frozen->soft, frozen->hard)
            : gscm_->Forward(fused);
    result.region_repr = g.region_repr;
    result.assignment = g.assignment;
    result.hard_assignment = std::move(g.hard_assignment);
    result.cluster_repr = g.cluster_repr;
  } else {
    result.region_repr = std::move(fused);
  }
  {
    obs::SpanGuard cls_span("classifier", obs::SpanLevel::kFine);
    result.master_logits = classifier_->Forward(result.region_repr);
  }
  return result;
}

ag::VarPtr CmsfModel::SlaveLogits(const ForwardResult& master,
                                  ag::VarPtr* out_inclusion,
                                  const std::vector<int>* rows) const {
  obs::SpanGuard span("ms_gate", obs::SpanLevel::kFine);
  UV_CHECK(gate_ != nullptr);
  UV_CHECK(master.cluster_repr != nullptr);
  ag::VarPtr inclusion = gate_->EstimateInclusion(master.cluster_repr);
  if (out_inclusion != nullptr) *out_inclusion = inclusion;
  return gate_->Forward(master.region_repr, master.assignment, inclusion,
                        *classifier_, rows);
}

std::vector<ag::VarPtr> CmsfModel::MasterParams() const {
  std::vector<ag::VarPtr> params = image_reduce_->Params();
  auto absorb = [&params](std::vector<ag::VarPtr> p) {
    params.insert(params.end(), p.begin(), p.end());
  };
  for (const auto& l : maga_) absorb(l.Params());
  for (const auto& l : gat_p_) absorb(l.Params());
  for (const auto& l : gat_i_) absorb(l.Params());
  if (gscm_) absorb(gscm_->Params());
  absorb(classifier_->Params());
  return params;
}

std::vector<ag::VarPtr> CmsfModel::GateParams() const {
  return gate_ ? gate_->Params() : std::vector<ag::VarPtr>{};
}

std::vector<ag::VarPtr> CmsfModel::AllParams() const {
  std::vector<ag::VarPtr> params = MasterParams();
  auto gate = GateParams();
  params.insert(params.end(), gate.begin(), gate.end());
  return params;
}

MasterTrainResult TrainMaster(CmsfModel* model,
                              const urg::UrbanRegionGraph& urg,
                              BatchPlan* plan) {
  const CmsfConfig& cfg = model->config();
  ag::AdamOptimizer::Options aopt;
  aopt.learning_rate = cfg.learning_rate;
  aopt.clip_norm = cfg.clip_norm;
  ag::AdamOptimizer opt(model->MasterParams(), aopt);

  MasterTrainResult result;
  obs::SpanGuard stage_span("train_master", obs::SpanLevel::kCoarse, "epochs",
                            cfg.master_epochs);
  result.seconds_per_epoch = TrainLoopBatched(
      &opt, cfg.master_epochs, cfg.lr_decay_per_epoch,
      plan->num_train_batches(),
      [&](int epoch, int b) {
        const Batch& batch = plan->TrainBatch(urg, cfg.seed, epoch, b);
        auto fwd = model->Forward(*batch.inputs, nullptr);
        ag::VarPtr loss =
            ag::BceWithLogits(ag::GatherRows(fwd.master_logits, batch.rows),
                              batch.labels, &batch.weights);
        result.final_loss = loss->value.at(0, 0);
        return loss;
      },
      &result.epoch_seconds, "master");

  // Freeze the learned membership only when something downstream consumes
  // it (the slave stage / gated inference): the sweep touches every region,
  // which paper-scale gate-less runs cannot afford.
  if (cfg.use_hierarchy && cfg.use_gate) {
    WallTimer timer;
    result.frozen = FreezeAssignment(*model, urg, plan->train_ids(),
                                     plan->train_labels());
    result.freeze_seconds = timer.Seconds();
  }
  return result;
}

CmsfModel::FrozenAssignment FreezeAssignment(
    const CmsfModel& model, const urg::UrbanRegionGraph& urg,
    const std::vector<int>& train_ids, const std::vector<int>& train_labels) {
  obs::SpanGuard span("freeze_assignment", obs::SpanLevel::kCoarse);
  UV_CHECK(model.gscm() != nullptr);
  UV_CHECK_EQ(train_ids.size(), train_labels.size());
  CmsfModel::FrozenAssignment frozen;
  {
    ag::NoGradScope no_grad;
    nn::Gscm::Assignment assignment =
        model.gscm()->Assign(WholeCityTrunk(model, urg));
    frozen.soft = std::move(assignment.soft->value);
    frozen.hard = std::move(assignment.hard);
  }
  // Pseudo labels from the labels of *training* regions only (test labels
  // stay unseen).
  std::vector<int> full_labels(static_cast<size_t>(urg.num_regions()), -1);
  for (size_t i = 0; i < train_ids.size(); ++i) {
    full_labels[train_ids[i]] = train_labels[i];
  }
  frozen.pseudo_labels = nn::ComputeClusterPseudoLabels(
      frozen.hard, full_labels, model.config().num_clusters);
  return frozen;
}

void SlavePuClusters(const Batch& batch,
                     const CmsfModel::FrozenAssignment& frozen,
                     std::vector<int>* positive,
                     std::vector<int>* unlabeled) {
  const int k = static_cast<int>(frozen.pseudo_labels.size());
  std::vector<char> ranked(k, batch.whole_city ? 1 : 0);
  if (!batch.whole_city) {
    for (const int node : batch.inputs->nodes) ranked[frozen.hard[node]] = 1;
  }
  positive->clear();
  unlabeled->clear();
  for (int c = 0; c < k; ++c) {
    if (!ranked[c]) continue;
    (frozen.pseudo_labels[c] == 1 ? positive : unlabeled)->push_back(c);
  }
}

SlaveTrainResult TrainSlave(CmsfModel* model,
                            const urg::UrbanRegionGraph& urg,
                            BatchPlan* plan,
                            const CmsfModel::FrozenAssignment& frozen) {
  SlaveTrainResult result;
  const CmsfConfig& cfg = model->config();
  if (!cfg.use_hierarchy || !cfg.use_gate) return result;
  UV_CHECK_EQ(frozen.pseudo_labels.size(),
              static_cast<size_t>(cfg.num_clusters));

  ag::AdamOptimizer::Options aopt;
  aopt.learning_rate = cfg.learning_rate * 0.1;  // Gentle fine-tuning stage.
  aopt.clip_norm = cfg.clip_norm;
  ag::AdamOptimizer opt(model->AllParams(), aopt);

  obs::SpanGuard stage_span("train_slave", obs::SpanLevel::kCoarse, "epochs",
                            cfg.slave_epochs);
  const uint64_t seed = cfg.seed ^ 0x51a7eull;
  std::vector<int> positive, unlabeled;
  result.seconds_per_epoch = TrainLoopBatched(
      &opt, cfg.slave_epochs, cfg.lr_decay_per_epoch,
      plan->num_train_batches(),
      [&](int epoch, int b) {
        const Batch& batch = plan->TrainBatch(urg, seed, epoch, b);
        CmsfModel::FrozenAssignment slice;
        auto fwd =
            model->Forward(*batch.inputs, PinFrozen(batch, frozen, &slice));
        // The loss reads only the batch rows, so only they run the gate.
        ag::VarPtr inclusion;
        ag::VarPtr slave_logits =
            model->SlaveLogits(fwd, &inclusion, batch.rows.get());
        ag::VarPtr loss =
            ag::BceWithLogits(ag::GatherRows(slave_logits, batch.rows),
                              batch.labels, &batch.weights);
        // A sampled batch without rankable pairs leaves the PU term out;
        // the whole-city batch always carries it (zero when K has no pair).
        SlavePuClusters(batch, frozen, &positive, &unlabeled);
        if (batch.whole_city || (!positive.empty() && !unlabeled.empty())) {
          ag::VarPtr loss_p = ag::PuRankLoss(inclusion, positive, unlabeled);
          loss = ag::Add(
              loss, ag::ScalarMul(loss_p, static_cast<float>(cfg.lambda)));
        }
        result.final_loss = loss->value.at(0, 0);
        return loss;
      },
      &result.epoch_seconds, "slave");
  return result;
}

std::vector<float> PredictCmsf(const CmsfModel& model,
                               const ag::VarPtr& city_trunk,
                               const CmsfModel::FrozenAssignment* frozen,
                               const std::vector<int>& eval_ids) {
  const CmsfConfig& cfg = model.config();
  const bool use_slave =
      cfg.use_hierarchy && cfg.use_gate && frozen != nullptr;
  ag::NoGradScope no_grad;
  CmsfModel::ForwardResult fwd =
      model.Head(city_trunk, use_slave ? frozen : nullptr);
  if (!use_slave) return SigmoidRows(fwd.master_logits->value, eval_ids);
  // After GSCM's cluster sums the gate is row-wise, and its per-row filter
  // is the head's main cost: run it on the requested rows only.
  const auto rows = std::make_shared<const std::vector<int>>(eval_ids);
  fwd.region_repr = ag::GatherRows(fwd.region_repr, rows);
  fwd.assignment = ag::GatherRows(fwd.assignment, rows);
  std::vector<int> order(eval_ids.size());
  std::iota(order.begin(), order.end(), 0);
  return SigmoidRows(model.SlaveLogits(fwd, nullptr)->value, order);
}

std::vector<float> PredictCmsf(const CmsfModel& model,
                               const urg::UrbanRegionGraph& urg,
                               const CmsfModel::FrozenAssignment* frozen,
                               const std::vector<int>& eval_ids) {
  obs::SpanGuard span("inference", obs::SpanLevel::kCoarse);
  return PredictCmsf(model, WholeCityTrunk(model, urg), frozen, eval_ids);
}

}  // namespace uv::core
