#ifndef UV_URG_URBAN_REGION_GRAPH_H_
#define UV_URG_URBAN_REGION_GRAPH_H_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "graph/csr_graph.h"
#include "graph/grid.h"
#include "synth/city.h"
#include "tensor/tensor.h"
#include "urg/feature_store.h"

namespace uv::urg {

// Feature groups that can be removed from the URG, matching the Fig. 5(b)
// data ablations of the paper.
enum class FeatureAblation {
  kNone = 0,
  kNoImage,  // Remove satellite-image features.
  kNoCate,   // Remove POI category-distribution features.
  kNoRad,    // Remove POI radius features.
  kNoIndex,  // Remove the basic-living-facility index.
};

// URG construction options (paper Section IV).
struct UrgOptions {
  bool use_spatial_edges = true;  // Disable for the noProx ablation.
  bool use_road_edges = true;     // Disable for the noRoad ablation.
  int road_max_hops = 5;          // Paper: regions connected within 5 hops.
  FeatureAblation feature_ablation = FeatureAblation::kNone;

  // Image feature extraction (frozen VGG16 stand-in).
  int image_feature_dim = 256;
  uint64_t encoder_seed = 7;

  // Column-standardize both feature blocks.
  bool standardize_features = true;

  bool operator==(const UrgOptions&) const = default;
};

// One rectangular district of the URG: the regions of a ShardSpec tile
// plus the cross-shard "halo" sources its in-edges reference. The shard's
// adjacency is a local dst-grouped CSR over num_owned + halo.size() nodes —
// owned regions first in tile row-major order, then halo regions in
// ascending global-id order. Only owned nodes carry in-segments (halo nodes
// exist purely as edge sources), so no per-shard structure — and no union
// of shards held at once — ever materializes a global O(E) array. A
// one-shard URG has no halo: its local ids are global ids.
struct UrgShard {
  int shard_id = 0;
  std::array<int, 4> bounds{};  // Half-open cell bounds {r0, c0, r1, c1}.
  int num_owned = 0;
  std::vector<int> halo;  // Sorted global ids of non-owned edge sources.
  graph::CsrGraph local;  // Dst-grouped; sources are local indices.

  // Local index of an owned region: pure arithmetic, no table.
  int OwnedLocal(const graph::GridSpec& grid, int id) const {
    return (grid.RowOf(id) - bounds[0]) * (bounds[3] - bounds[1]) +
           (grid.ColOf(id) - bounds[1]);
  }
  // Global id of any local index (owned or halo).
  int GlobalOf(const graph::GridSpec& grid, int local) const {
    if (local < num_owned) {
      const int tile_w = bounds[3] - bounds[1];
      return grid.RegionId(bounds[0] + local / tile_w,
                           bounds[1] + local % tile_w);
    }
    return halo[local - num_owned];
  }
};

// The URG adjacency (self loops included) as district shards. Shard
// membership is deterministic arithmetic on the grid (ShardSpec), and
// shards build independently in parallel, so construction peaks at
// O(E/shards) transient memory instead of one global edge list. The edge
// set does not depend on the shard count.
struct ShardedUrg {
  graph::GridSpec grid;
  graph::ShardSpec spec;
  std::vector<UrgShard> shards;
  // Global in-degree (self loop included) per region: subgraph GCN
  // normalization must use parent-graph degrees, not sampled ones.
  std::vector<int> global_degree;

  int num_regions() const { return static_cast<int>(global_degree.size()); }

  // Appends the global in-neighbors of `id` (self loop included) to *out,
  // sorted ascending.
  void InNeighborsGlobal(int id, std::vector<int>* out) const;

  // The one-shard case over a whole-city adjacency: a single shard owns
  // every region, so its CSR is `adjacency` itself. `adjacency` must be
  // dst-grouped over grid.num_regions() nodes with ascending segments
  // (what graph::CsrGraph::FromEdges builds). A graph that arrives as a CSR
  // — io::LoadUrg, or a real city's own relation tables — enters here.
  static std::shared_ptr<ShardedUrg> FromCsr(const graph::GridSpec& grid,
                                             graph::CsrGraph adjacency);
};

// Options for BuildShardedUrg.
struct ShardOptions {
  // Target shard count; <= 0 resolves UV_SHARDS from the environment and
  // falls back to the global thread-pool width. The realized tiling
  // (ShardSpec) depends only on the grid and this count — never on the
  // thread count — so the sharded graph is bit-stable across UV_THREADS.
  int num_shards = 0;
  // The lazy image store's cache and statistics sample; its encoder and
  // standardization follow UrgOptions.
  LazyFeatureStore::Options feature_store;
};

// The Urban Region Graph G(V, E, A, X): fine-grained regions as nodes,
// spatial-proximity plus road-connectivity edges, and multi-modal region
// features. Also carries the labels and raw tiles so that a single object
// is a complete dataset for every detector.
struct UrbanRegionGraph {
  std::string city_name;
  graph::GridSpec grid;

  // Supervision: -1 unlabeled, 0 non-UV, 1 UV; plus full ground truth for
  // the Fig. 7 case study.
  std::vector<int> labels;
  std::vector<uint8_t> is_uv;

  // Raw tiles (shared with the generating City) for the image-based
  // baselines (UVLens, MUVFCN). May be null if tiles were not generated.
  std::shared_ptr<Tensor> images;
  int image_size = 32;

  // The adjacency as district shards (one shard for BuildUrg) and the
  // region features behind a batch-oriented store (resident for BuildUrg,
  // render-on-demand for BuildShardedUrg). Read neighborhoods through
  // urg::NeighborView and feature rows through the Gather helpers below.
  std::shared_ptr<ShardedUrg> sharded;
  std::shared_ptr<FeatureStore> features;

  // Edge statistics (directed counts, self loops excluded) for Table I.
  int64_t num_spatial_edges = 0;
  int64_t num_road_edges = 0;
  int64_t num_edges = 0;  // Union of the two relations.

  int num_regions() const { return static_cast<int>(grid.num_regions()); }

  // Ids of labeled regions, in ascending order.
  std::vector<int> LabeledIds() const;

  // Feature dimensions and batched row access through the feature store.
  int PoiDim() const { return features->poi_dim(); }
  int ImageDim() const { return features->image_dim(); }
  void GatherPoiRows(const std::vector<int>& ids, Tensor* out) const {
    features->GatherPoi(ids, out);
  }
  void GatherImageRows(const std::vector<int>& ids, Tensor* out) const {
    features->GatherImage(ids, out);
  }
};

// Assembles the URG from generated city data: the one-shard case, with
// features encoded eagerly from the city's tiles (a zero image block when
// it has none) and held in a ResidentFeatureStore.
UrbanRegionGraph BuildUrg(const synth::City& city, const UrgOptions& options);

// Paper-scale assembly: district-sharded adjacency (shards build in
// parallel; no global O(E) edge list is ever materialized) plus a lazy
// feature store that renders and encodes tile batches on demand. The edge
// set is exactly BuildUrg's. Requires a shared City because tiles are
// re-rendered per batch for the store's lifetime.
UrbanRegionGraph BuildShardedUrg(std::shared_ptr<const synth::City> city,
                                 const UrgOptions& options,
                                 const ShardOptions& shard_options);

// Returns the subgrid covering `fraction` of the city's POIs with a centred
// rectangle (the paper's "main urban area" rule). The result is a pair of
// inclusive row/col bounds {row0, col0, row1, col1}.
std::array<int, 4> MainUrbanAreaBounds(const synth::City& city,
                                       double fraction);

}  // namespace uv::urg

#endif  // UV_URG_URBAN_REGION_GRAPH_H_
