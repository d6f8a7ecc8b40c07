#ifndef UV_URG_NEIGHBOR_SAMPLER_H_
#define UV_URG_NEIGHBOR_SAMPLER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/graph_context.h"
#include "tensor/tensor.h"
#include "urg/urban_region_graph.h"

namespace uv::urg {

// splitmix64 finalizer combining a base seed with a salt (epoch index, node
// id, ...). Shared by the sampler and the minibatch trainers so per-epoch
// resampling streams are decorrelated but reproducible.
uint64_t MixSeed(uint64_t seed, uint64_t salt);

// Minibatch training knobs shared by every detector.
struct MinibatchConfig {
  int batch_size = 0;  // Seeds per step; <= 0 selects full-graph training.
  int fanout = 16;     // Sampled in-neighbors per node; 0 keeps them all.
  int hops = 2;        // Trunk depth: two MAGA layers = two graph hops.
  uint64_t seed = 0x5eedbeef;

  // Applies UV_BATCH / UV_FANOUT (when set and positive) over `base`.
  static MinibatchConfig FromEnv(const MinibatchConfig& base);
};

// Read access to a URG's global in-neighborhoods, whatever its shard
// count.
class NeighborView {
 public:
  explicit NeighborView(const UrbanRegionGraph& urg);

  int num_regions() const { return sharded_->num_regions(); }

  // Global in-degree of `id`, self loop included.
  int GlobalDegree(int id) const { return sharded_->global_degree[id]; }

  // Appends the global in-neighbors of `id` (self loop included) to *out,
  // sorted ascending.
  void InNeighbors(int id, std::vector<int>* out) const {
    sharded_->InNeighborsGlobal(id, out);
  }

 private:
  const ShardedUrg* sharded_;
};

// A compact k-hop subgraph around a seed batch, with nodes remapped to
// local indices [0, num_nodes): seeds first (in the caller's order), then
// discovered neighbors in first-discovery order. Edges are dst-grouped —
// the layout every message-passing layer consumes — and carry GCN norms
// computed from PARENT-graph degrees, so a fanout=0 sample reproduces the
// full-graph forward pass on the seed rows bit-for-bit.
//
// Expansion is GraphSAGE-layered: nodes discovered at depth < hops keep
// their (sampled) full in-segments; depth == hops nodes get only a self
// loop. Their layer-1 outputs are garbage, but no seed output ever reads
// them — seeds consume exactly `hops` rounds of aggregation.
struct SampledSubgraph {
  std::vector<int> nodes;  // Global region ids; [0, num_seeds) = seeds.
  int num_seeds = 0;

  std::shared_ptr<const std::vector<int>> offsets;  // num_nodes + 1.
  std::shared_ptr<const std::vector<int>> src_ids;  // Local, size E.
  std::shared_ptr<const std::vector<int>> dst_ids;  // Local, size E.
  Tensor gcn_norm;  // E x 1, 1/sqrt(global_deg_dst * global_deg_src).

  int num_nodes() const { return static_cast<int>(nodes.size()); }
  int64_t num_edges() const {
    return src_ids ? static_cast<int64_t>(src_ids->size()) : 0;
  }
};

// Samples the k-hop neighborhood closure of `seeds` (which must be unique).
// Deterministic in (cfg.seed, cfg.fanout, cfg.hops, seeds) alone: each
// node's fanout draw uses a private RNG keyed on (cfg.seed, global id), so
// results are bit-identical across thread counts, pool settings, batch
// schedules, and shard counts. Trainers vary cfg.seed per epoch to
// resample neighborhoods.
SampledSubgraph SampleKHop(const NeighborView& view,
                           const std::vector<int>& seeds,
                           const MinibatchConfig& cfg);

// Wraps the subgraph's index arrays into the GraphContext the GNN layers
// consume (no copies; gcn_norm becomes a constant variable).
nn::GraphContext ContextFromSubgraph(const SampledSubgraph& sg);

// The subgraph nodes' two feature modalities as constant variables, row i
// holding the features of sg.nodes[i], gathered through the URG's feature
// store (pool-backed, render-on-demand at paper scale).
struct SubgraphFeatures {
  ag::VarPtr poi;
  ag::VarPtr image;
};
SubgraphFeatures GatherSubgraphFeatures(const UrbanRegionGraph& urg,
                                        const SampledSubgraph& sg);

}  // namespace uv::urg

#endif  // UV_URG_NEIGHBOR_SAMPLER_H_
