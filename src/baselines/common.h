#ifndef UV_BASELINES_COMMON_H_
#define UV_BASELINES_COMMON_H_

#include <vector>

#include "autograd/variable.h"
#include "eval/detector.h"
#include "tensor/tensor.h"

namespace uv::baselines {

// Hyper-parameters shared by every baseline (Section VI-A: Adam, initial
// learning rate 1e-4, hidden size 64; we default to the same faster rate as
// CmsfConfig for single-core budgets).
struct TrainOptions {
  int epochs = 120;
  double learning_rate = 2e-3;
  double lr_decay_per_epoch = 0.999;
  double pos_weight = 0.0;  // 0 = auto class balancing (num_neg/num_pos).
  double clip_norm = 5.0;
  uint64_t seed = 1;
  // Neighborhood-sampled minibatch training (paper-scale cities): > 0
  // switches the graph baselines from the whole-city batch to per-batch
  // k-hop subgraphs of O(batch_size * fanout^hops) nodes (core::BatchPlan).
  int batch_size = 0;
  int fanout = 16;  // Sampled in-neighbors per node; 0 keeps them all.
};

// Total scalar parameter count.
int64_t CountParams(const std::vector<ag::VarPtr>& params);

}  // namespace uv::baselines

#endif  // UV_BASELINES_COMMON_H_
