#include "baselines/mmre_baseline.h"

#include <cmath>

#include "autograd/ops.h"
#include "core/batch_plan.h"
#include "tensor/tensor_ops.h"
#include "util/timer.h"

namespace uv::baselines {

namespace {
constexpr int kEmbedDim = 64;
constexpr int kPoiHidden = 128;
constexpr int kNumPositive = 4;   // Paper: 4 positive samples.
constexpr int kNumNegative = 10;  // Paper: 10 negative samples.
constexpr float kLambdaImage = 0.5f;  // Autoencoder reconstruction weight.
constexpr float kLambdaSkip = 0.1f;   // SkipGram weight.

// Row-wise dot products of two same-shaped matrices -> (N x 1).
ag::VarPtr RowDot(const ag::VarPtr& a, const ag::VarPtr& b) {
  Tensor ones(a->cols(), 1);
  ones.Fill(1.0f);
  return ag::MatMul(ag::Mul(a, b), ag::MakeConst(std::move(ones)));
}

// -mean(log sigmoid(sign * s)) via the stable BCE-with-logits form.
ag::VarPtr LogSigmoidLoss(const ag::VarPtr& scores, bool positive) {
  Tensor labels(scores->rows(), 1);
  labels.Fill(positive ? 1.0f : 0.0f);
  return ag::BceWithLogits(scores, labels, nullptr);
}

}  // namespace

ag::VarPtr MmreBaseline::EmbedAll() const {
  ag::VarPtr img_code = enc3_->Forward(
      enc2_->Forward(enc1_->Forward(city_.image, kern::Activation::kRelu),
                     kern::Activation::kRelu),
      kern::Activation::kRelu);
  ag::VarPtr poi_code = ag::Relu(poi_g1_->Forward(city_.poi, city_.ctx));
  poi_code = ag::Relu(poi_g2_->Forward(poi_code, city_.ctx));
  return ag::Tanh(fuse_->Forward(ag::ConcatCols(poi_code, img_code)));
}

void MmreBaseline::Train(const urg::UrbanRegionGraph& urg,
                         const std::vector<int>& train_ids,
                         const std::vector<int>& train_labels) {
  Rng rng(options_.seed);
  city_ = core::WholeCityInputs(urg);
  const int img_dim = urg.ImageDim();

  enc1_ = std::make_unique<nn::Linear>(img_dim, 120, &rng);
  enc2_ = std::make_unique<nn::Linear>(120, 84, &rng);
  enc3_ = std::make_unique<nn::Linear>(84, kEmbedDim, &rng);
  dec1_ = std::make_unique<nn::Linear>(kEmbedDim, 84, &rng);
  dec2_ = std::make_unique<nn::Linear>(84, 120, &rng);
  dec3_ = std::make_unique<nn::Linear>(120, img_dim, &rng);
  poi_g1_ = std::make_unique<nn::GcnLayer>(urg.PoiDim(), kPoiHidden, &rng);
  poi_g2_ = std::make_unique<nn::GcnLayer>(kPoiHidden, kEmbedDim, &rng);
  fuse_ = std::make_unique<nn::Linear>(2 * kEmbedDim, kEmbedDim, &rng);
  head_ = std::make_unique<nn::Linear>(kEmbedDim, 1, &rng);

  std::vector<ag::VarPtr> embed_params;
  auto add = [&embed_params](std::vector<ag::VarPtr> p) {
    embed_params.insert(embed_params.end(), p.begin(), p.end());
  };
  add(enc1_->Params());
  add(enc2_->Params());
  add(enc3_->Params());
  add(dec1_->Params());
  add(dec2_->Params());
  add(dec3_->Params());
  add(poi_g1_->Params());
  add(poi_g2_->Params());
  add(fuse_->Params());

  const int n = urg.num_regions();
  // Whole-city nodes are in id order, so the context's sources are ids.
  const std::vector<int>& offsets = *city_.ctx.offsets;
  const std::vector<int>& sources = *city_.ctx.src_ids;

  // Unsupervised phase: denoising reconstruction + SkipGram with per-epoch
  // negative sampling (the expensive part the paper's Table III shows).
  ag::AdamOptimizer::Options aopt;
  aopt.learning_rate = options_.learning_rate;
  aopt.clip_norm = options_.clip_norm;
  ag::AdamOptimizer opt(embed_params, aopt);
  const int unsup_epochs = std::max(10, options_.epochs / 2);
  epoch_seconds_ = core::TrainLoopBatched(
      &opt, unsup_epochs, options_.lr_decay_per_epoch, /*num_batches=*/1,
      [&](int, int) -> ag::VarPtr {
        // Denoising autoencoder branch.
        Tensor noisy = city_.image->value;
        for (int64_t i = 0; i < noisy.size(); ++i) {
          noisy[i] += static_cast<float>(rng.Gaussian(0.0, 0.1));
        }
        ag::VarPtr corrupted = ag::MakeConst(std::move(noisy));
        ag::VarPtr code = enc3_->Forward(
            enc2_->Forward(
                enc1_->Forward(corrupted, kern::Activation::kRelu),
                kern::Activation::kRelu),
            kern::Activation::kRelu);
        ag::VarPtr recon = dec3_->Forward(
            dec2_->Forward(dec1_->Forward(code, kern::Activation::kRelu),
                           kern::Activation::kRelu));
        ag::VarPtr diff = ag::Sub(recon, city_.image);
        ag::VarPtr recon_loss = ag::MeanAll(ag::Mul(diff, diff));

        // SkipGram branch over the URG context.
        ag::VarPtr z = EmbedAll();
        auto centers = std::make_shared<std::vector<int>>();
        auto partners = std::make_shared<std::vector<int>>();
        auto neg_centers = std::make_shared<std::vector<int>>();
        auto negatives = std::make_shared<std::vector<int>>();
        // Sample a subset of centre nodes each epoch to bound the cost.
        const int num_centers = std::min(n, 1024);
        for (int s = 0; s < num_centers; ++s) {
          const int i = rng.UniformInt(n);
          const int degree = offsets[i + 1] - offsets[i];
          if (degree == 0) continue;
          for (int k = 0; k < kNumPositive; ++k) {
            centers->push_back(i);
            partners->push_back(sources[offsets[i] + rng.UniformInt(degree)]);
          }
          for (int k = 0; k < kNumNegative; ++k) {
            neg_centers->push_back(i);
            negatives->push_back(rng.UniformInt(n));
          }
        }
        ag::VarPtr skip_loss;
        if (!centers->empty()) {
          ag::VarPtr pos_score =
              RowDot(ag::GatherRows(z, centers), ag::GatherRows(z, partners));
          ag::VarPtr neg_score = RowDot(ag::GatherRows(z, neg_centers),
                                        ag::GatherRows(z, negatives));
          skip_loss = ag::Add(LogSigmoidLoss(pos_score, true),
                              LogSigmoidLoss(neg_score, false));
        }
        ag::VarPtr loss = ag::ScalarMul(recon_loss, kLambdaImage);
        if (skip_loss) {
          loss = ag::Add(loss, ag::ScalarMul(skip_loss, kLambdaSkip));
        }
        return loss;
      }, &epoch_history_, "MMRE-unsup");

  // Freeze embeddings, then train the logistic head supervised.
  embeddings_ = EmbedAll()->value;
  const Tensor labels = core::MakeLabelTensor(train_labels);
  const Tensor weights =
      core::MakeBceWeights(train_labels, options_.pos_weight);
  ag::VarPtr train_embed = ag::MakeConst(GatherRows(embeddings_, train_ids));
  ag::AdamOptimizer head_opt(head_->Params(), aopt);
  core::TrainLoopBatched(
      &head_opt, options_.epochs, options_.lr_decay_per_epoch,
      /*num_batches=*/1,
      [&](int, int) {
        return ag::BceWithLogits(head_->Forward(train_embed), labels,
                                 &weights);
      },
      nullptr, "MMRE-head");
}

std::vector<float> MmreBaseline::Score(const urg::UrbanRegionGraph& urg,
                                       const std::vector<int>& eval_ids) {
  (void)urg;
  WallTimer timer;
  // Embeddings are precomputed; inference is just the logistic head.
  ag::VarPtr logits =
      head_->Forward(ag::MakeConst(GatherRows(embeddings_, eval_ids)));
  std::vector<int> all(eval_ids.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  auto out = core::SigmoidRows(logits->value, all);
  inference_seconds_ = timer.Seconds();
  return out;
}

int64_t MmreBaseline::NumParameters() const {
  if (!enc1_) return 0;
  std::vector<ag::VarPtr> params;
  auto add = [&params](std::vector<ag::VarPtr> p) {
    params.insert(params.end(), p.begin(), p.end());
  };
  add(enc1_->Params());
  add(enc2_->Params());
  add(enc3_->Params());
  add(dec1_->Params());
  add(dec2_->Params());
  add(dec3_->Params());
  add(poi_g1_->Params());
  add(poi_g2_->Params());
  add(fuse_->Params());
  add(head_->Params());
  return CountParams(params);
}

}  // namespace uv::baselines
