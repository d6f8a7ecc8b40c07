#ifndef UV_NN_MAGA_H_
#define UV_NN_MAGA_H_

#include <vector>

#include "nn/gat.h"
#include "nn/graph_context.h"

namespace uv::nn {

// How two representation vectors are fused (paper eq. 8's AGG; Section VI-A
// instantiates it with the attention mechanism; GSCM uses sum or concat).
enum class AggKind { kSum, kConcat, kAttention };

// Fuses u and v (same shape) according to `agg`; for kAttention the 2-way
// softmax weights come from scoring both against the learnable query q
// (pass the same q for consistent weighting). Free function so GSCM and
// MAGA share it.
ag::VarPtr AggregatePair(AggKind agg, const ag::VarPtr& u, const ag::VarPtr& v,
                         const ag::VarPtr& attention_query);

// Mutual-Attentive Graph Aggregation layer (paper Section V-A1, eq. 1-8).
// For each modality the layer aggregates neighbourhood features of the same
// modality (intra) and of the other modality (inter), each with its own
// attention parameters, then fuses both contexts with AGG.
class MagaLayer {
 public:
  // out_dim is the per-modality output width and must be divisible by
  // num_heads. With AggKind::kConcat the actual output width is 2*out_dim
  // (see out_width()).
  MagaLayer(int in_p, int in_i, int out_dim, int num_heads, AggKind agg,
            Rng* rng);

  struct Output {
    ag::VarPtr p;  // Updated POI-modality representation.
    ag::VarPtr i;  // Updated image-modality representation.
  };

  Output Forward(const ag::VarPtr& x_p, const ag::VarPtr& x_i,
                 const GraphContext& ctx) const;

  // Output width per modality after AGG.
  int out_width() const;

  std::vector<ag::VarPtr> Params() const;

 private:
  AggKind agg_;
  int out_dim_;
  std::vector<AttentionHead> intra_p_;   // P <- P, shared W_P.
  std::vector<AttentionHead> intra_i_;   // I <- I, shared W_I.
  std::vector<AttentionHead> inter_pi_;  // P <- I, W'_P / W'_I.
  std::vector<AttentionHead> inter_ip_;  // I <- P.
  ag::VarPtr agg_query_p_;  // Attention-AGG queries (kAttention only).
  ag::VarPtr agg_query_i_;
};

}  // namespace uv::nn

#endif  // UV_NN_MAGA_H_
