#ifndef UV_CORE_CMSF_CONFIG_H_
#define UV_CORE_CMSF_CONFIG_H_

#include <cstdint>

#include "nn/maga.h"

namespace uv::core {

// Hyper-parameters of the Contextual Master-Slave Framework. Defaults
// follow Section VI-A of the paper where feasible on one CPU core; the
// per-city settings the paper tunes (K, tau, lambda, heads, GSCM AGG) are
// set by the benchmark harness per dataset.
struct CmsfConfig {
  // --- Architecture ------------------------------------------------------
  int image_reduce_dim = 128;  // Linear reduction of image features first.
  int hidden_dim = 64;         // Paper: hidden size 64.
  int maga_layers = 2;         // Paper: two stacked MAGA layers.
  int maga_heads = 2;          // Paper: 2 heads (SZ/FZ), 1 (BJ).
  nn::AggKind maga_agg = nn::AggKind::kAttention;  // Paper Section VI-A.
  int num_clusters = 50;       // Paper K: 50 (SZ), 500 (FZ/BJ).
  float temperature = 0.1f;    // Paper tau: 0.1 / 0.01 / 0.1.
  nn::AggKind gscm_agg = nn::AggKind::kSum;  // Paper: sum (SZ/FZ), concat (BJ).
  int classifier_hidden = 32;  // Master 2-layer MLP hidden width.
  int context_dim = 16;        // Width of the region context vector q_i.

  // --- Ablation variants (Fig. 5a) ---------------------------------------
  bool use_maga = true;       // false = CMSF-M (vanilla GAT, no inter-modal).
  bool use_hierarchy = true;  // false = CMSF-H (no GSCM, no MS-Gate).
  bool use_gate = true;       // false = CMSF-G (master model only).

  // --- Training -----------------------------------------------------------
  int master_epochs = 120;
  int slave_epochs = 15;  // Paper: "the slave stage only needs very few
                          // iterations".
  // The paper trains with Adam at 1e-4; on a single CPU core we default to
  // a higher rate with the same exponential decay to reach comparable
  // optima in fewer epochs. Both are configurable.
  double learning_rate = 2e-3;
  double lr_decay_per_epoch = 0.999;  // Paper: 0.1% exponential decay.
  double lambda = 0.01;  // Balancing weight (paper: 0.01 / 1.0 / 0.001).
  // Positive-class weight in the detection BCE; 0 = auto (num_neg/num_pos).
  // Applied identically to every trained method via TrainingUtil.
  double pos_weight = 0.0;
  double clip_norm = 5.0;
  uint64_t seed = 2023;

  // Neighborhood-sampled minibatch training (paper-scale cities): > 0
  // trains both stages on per-batch 2-hop subgraphs instead of the
  // whole-city batch (core::BatchPlan). In a training batch the GSCM
  // cluster representations are aggregated from the batch's regions only
  // (a documented approximation); the frozen stage-one assignment and
  // every score come from the exact whole-city pass (core::WholeCityTrunk).
  int batch_size = 0;
  int fanout = 16;  // Sampled in-neighbors per node; 0 keeps them all.
};

}  // namespace uv::core

#endif  // UV_CORE_CMSF_CONFIG_H_
