#include "infer/engine.h"

#include <utility>

#include "nn/gscm.h"
#include "nn/maga.h"
#include "tensor/forward_ops.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"

namespace uv::infer {

std::vector<float> Engine::Score(const std::vector<int>& ids) {
  std::vector<float> out(ids.size());
  ScoreInto(ids.data(), static_cast<int>(ids.size()), out.data());
  return out;
}

namespace {

// nn::AggregatePair's value on raw tensors, step for step through the same
// kernels, so the request tail never calls a layer. The query may be null
// for kSum/kConcat. Row r of the result depends only on row r of u and v.
Tensor AggregatePairRaw(nn::AggKind agg, const Tensor& u, const Tensor& v,
                        const Tensor* attention_query) {
  switch (agg) {
    case nn::AggKind::kSum:
      return Add(u, v);
    case nn::AggKind::kConcat:
      return ConcatCols(u, v);
    case nn::AggKind::kAttention: {
      UV_CHECK(attention_query != nullptr);
      Tensor e_u = MatMul(u, *attention_query);
      LeakyReluInPlace(0.2f, &e_u);
      Tensor e_v = MatMul(v, *attention_query);
      LeakyReluInPlace(0.2f, &e_v);
      const Tensor weights = RowSoftmax(ConcatCols(e_u, e_v), 1.0f);
      Tensor a = u;
      MulColBroadcastInPlace(SliceCols(weights, 0, 1), &a);
      Tensor b = v;
      MulColBroadcastInPlace(SliceCols(weights, 1, 2), &b);
      return Add(a, b);
    }
  }
  UV_CHECK(false);
  return u;
}

// Prepared CMSF serving state. Construction takes the trunk from the
// whole-city pass and runs GSCM (and the gate's inclusion estimate) once
// under an ag::NoGradScope; ScoreInto replays only the row-wise tail on raw
// tensors:
//   master: global context share (eq. 12-13), AGG, classifier MLP;
//   slave:  + context vector (eq. 19), filter (eq. 20), gated MLP (eq. 21).
// Without the hierarchy the tail is the classifier MLP alone, which is also
// the GCN/GAT baselines' fuse and head layers over their own trunk.
class CmsfEngine final : public Engine {
 public:
  // The classifier tail alone over given trunk rows.
  CmsfEngine(Tensor trunk, Tensor w1, Tensor b1, Tensor w2, Tensor b2)
      : num_regions_(trunk.rows()),
        trunk_(std::move(trunk)),
        w1_(std::move(w1)),
        b1_(std::move(b1)),
        w2_(std::move(w2)),
        b2_(std::move(b2)) {
    UV_CHECK_EQ(trunk_.cols(), w1_.rows());
    UV_CHECK_EQ(w1_.cols(), w2_.rows());
    UV_CHECK_EQ(w2_.cols(), 1);
  }

  CmsfEngine(const core::CmsfModel& model,
             const core::CmsfModel::FrozenAssignment* frozen,
             const urg::UrbanRegionGraph& urg) {
    const core::CmsfConfig& cfg = model.config();
    use_hierarchy_ = cfg.use_hierarchy;
    // Mirrors PredictCmsf: the slave path needs the hierarchy, the gate,
    // and a frozen stage-one assignment.
    use_slave_ = cfg.use_hierarchy && cfg.use_gate && frozen != nullptr;

    ag::NoGradScope no_grad;
    const ag::VarPtr trunk = core::WholeCityTrunk(model, urg);
    num_regions_ = trunk->rows();

    if (use_hierarchy_) {
      const nn::Gscm* gscm = model.gscm();
      UV_CHECK(gscm != nullptr);
      nn::Gscm::Output g =
          use_slave_ ? gscm->ForwardFrozen(trunk, frozen->soft, frozen->hard)
                     : gscm->Forward(trunk);
      assign_ = std::move(g.assignment->value);
      // The reverse share x' = relu(B H' W_r) factors as B * (H' W_r); the
      // inner product is request-invariant, so cache it (K x in_dim).
      inner_ = MatMul(g.cluster_repr->value, gscm->reverse_transform());
      agg_ = gscm->agg();
      if (const Tensor* q = gscm->agg_query_value()) {
        agg_query_ = *q;
        has_agg_query_ = true;
      }
      if (use_slave_) {
        const nn::MsGate& gate = model.gate();
        const ag::VarPtr inclusion = gate.EstimateInclusion(g.cluster_repr);
        // 1 x K for MulRowVector.
        inclusion_row_ = Transpose(inclusion->value);
        w_q_ = gate.context_transform();
        w_f_ = gate.filter_weight();
        b_f_ = gate.filter_bias();
      }
    }

    const nn::Mlp& classifier = model.classifier();
    w1_ = classifier.layer1().w()->value;
    b1_ = classifier.layer1().b()->value;
    w2_ = classifier.layer2().w()->value;
    b2_ = classifier.layer2().b()->value;
    trunk_ = std::move(trunk->value);
  }

  int num_regions() const override { return num_regions_; }

  void ScoreInto(const int* ids, int n, float* out) override {
    if (n <= 0) return;
    GatherRowsInto(trunk_, ids, n, &x_);

    const Tensor* region = &x_;
    if (use_hierarchy_) {
      // Global context share: relu(B_rows * inner), then AGG with x^.
      GatherRowsInto(assign_, ids, n, &b_);
      global_.ResizeUninit(n, inner_.cols());
      Gemm(false, false, 1.0f, b_, inner_, 0.0f, &global_);
      ReluInPlace(&global_);
      region_ = AggregatePairRaw(agg_, x_, global_,
                                 has_agg_query_ ? &agg_query_ : nullptr);
      region = &region_;
    }

    if (use_slave_) {
      // Context vector q = sigmoid((B ⊙ s^T) W_q), then the gated MLP,
      // which derives the filter one tile of rows at a time.
      weighted_ = b_;
      MulRowVectorInPlace(inclusion_row_, &weighted_);
      context_.ResizeUninit(n, w_q_.cols());
      Gemm(false, false, 1.0f, weighted_, w_q_, 0.0f, &context_);
      SigmoidInPlace(&context_);
      GatedMlpForward(*region, context_, w_f_, b_f_, w1_, b1_, w2_, b2_,
                      &tile_, &logits_, &hidden_);
    } else {
      hidden_.ResizeUninit(n, w1_.cols());
      GemmBiasAct(false, false, 1.0f, *region, w1_, 0.0f, &hidden_, &b1_,
                  kern::Activation::kRelu);
      logits_.ResizeUninit(n, 1);
      GemmBiasAct(false, false, 1.0f, hidden_, w2_, 0.0f, &logits_, &b2_,
                  kern::Activation::kNone);
    }

    // The one-branch sigmoid, as core::SigmoidRows applies it to every
    // detector's logits: bit-identity with the autograd Score path.
    const float* z = logits_.data();
    for (int r = 0; r < n; ++r) out[r] = kern::PlainSigmoid(z[r]);
    // x_ still holds the gathered trunk rows — the representation the
    // checkpoint baseline sketched — so drift monitoring sees exactly the
    // features this batch was scored from.
    ObserveQuality(x_.data(), n, x_.cols(), out);
  }

 private:
  bool use_hierarchy_ = false;
  bool use_slave_ = false;
  int num_regions_ = 0;

  // Request-invariant state cached at construction.
  Tensor trunk_;          // N x gscm_in (fused x^).
  Tensor assign_;         // N x K soft assignment B.
  Tensor inner_;          // K x in_dim (H' W_r).
  Tensor inclusion_row_;  // 1 x K (s^T), slave only.
  Tensor agg_query_;      // AGG attention query copy (kAttention only).
  bool has_agg_query_ = false;
  nn::AggKind agg_ = nn::AggKind::kSum;
  Tensor w_q_, w_f_, b_f_;      // Gate parameters (slave only).
  Tensor w1_, b1_, w2_, b2_;    // Master classifier parameters.

  // Per-request workspaces; slabs are reused across calls.
  Tensor x_, b_, global_, region_;
  Tensor weighted_, context_;
  GatedMlpTile tile_;  // Filter tile of the slave path.
  Tensor hidden_, logits_;
};

}  // namespace

std::unique_ptr<Engine> MakeCmsfEngine(
    const core::CmsfModel& model,
    const core::CmsfModel::FrozenAssignment* frozen,
    const urg::UrbanRegionGraph& urg) {
  return std::make_unique<CmsfEngine>(model, frozen, urg);
}

std::unique_ptr<Engine> MakeDenseTailEngine(Tensor features, Tensor w1,
                                            Tensor b1, Tensor w2, Tensor b2) {
  return std::make_unique<CmsfEngine>(std::move(features), std::move(w1),
                                      std::move(b1), std::move(w2),
                                      std::move(b2));
}

}  // namespace uv::infer
