#include "urg/urban_region_graph.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <deque>
#include <unordered_set>
#include <utility>

#include "features/image_encoder.h"
#include "features/poi_features.h"
#include "obs/trace.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace uv::urg {
namespace {

// The POI feature block (Section IV-B) with the ablated group zeroed
// (Fig. 5(b) data ablations), standardized when the options ask; shared by
// both builders so they produce identical POI bytes.
Tensor PoiBlock(const synth::City& city, const UrgOptions& options) {
  Tensor poi = features::BuildPoiFeatures(city);
  switch (options.feature_ablation) {
    case FeatureAblation::kNone:
    case FeatureAblation::kNoImage:
      break;
    case FeatureAblation::kNoCate:
      for (int r = 0; r < poi.rows(); ++r) {
        for (int c = features::PoiFeatureGroups::kCategoryBegin;
             c < features::PoiFeatureGroups::kCategoryEnd; ++c) {
          poi.at(r, c) = 0.0f;
        }
      }
      break;
    case FeatureAblation::kNoRad:
      for (int r = 0; r < poi.rows(); ++r) {
        for (int c = features::PoiFeatureGroups::kRadiusBegin;
             c < features::PoiFeatureGroups::kRadiusEnd; ++c) {
          poi.at(r, c) = 0.0f;
        }
      }
      break;
    case FeatureAblation::kNoIndex:
      for (int r = 0; r < poi.rows(); ++r) {
        poi.at(r, features::PoiFeatureGroups::kIndexBegin) = 0.0f;
      }
      break;
  }
  if (options.standardize_features) StandardizeColumnsInPlace(&poi);
  return poi;
}

// The frozen tile encoder both builders encode `city`'s tiles with, so
// the lazy store's rows match the eager table's.
features::ConvEncoder::Options TileEncoderOptions(const synth::City& city,
                                                  const UrgOptions& options) {
  features::ConvEncoder::Options enc;
  enc.image_size = city.config.image_size;
  enc.out_dim = options.image_feature_dim;
  enc.seed = options.encoder_seed;
  return enc;
}

int ResolveShardTarget(int requested) {
  if (requested > 0) return requested;
  if (const char* v = std::getenv("UV_SHARDS")) {
    const int parsed = std::atoi(v);
    if (parsed > 0) return parsed;
  }
  return ThreadPool::Global().num_threads();
}

// The URG fields every builder copies from the city.
UrbanRegionGraph UrgFromCity(const synth::City& city) {
  UrbanRegionGraph urg;
  urg.city_name = city.config.name;
  urg.grid = city.grid;
  urg.labels = city.labels;
  urg.is_uv = std::vector<uint8_t>(city.is_uv.begin(), city.is_uv.end());
  urg.images = city.images;
  urg.image_size = city.config.image_size;
  return urg;
}

// Builds the region relations (Section IV-A) as district shards (up to
// `target_shards`) into urg->sharded, with the Table I edge totals.
void BuildTopology(const synth::City& c, const UrgOptions& options,
                   int target_shards, UrbanRegionGraph* urg) {
  const graph::GridSpec& grid = c.grid;
  const int n = c.num_regions();
  auto sharded = std::make_shared<ShardedUrg>();
  sharded->grid = grid;
  sharded->spec = graph::MakeShardSpec(grid, target_shards);
  const graph::ShardSpec& spec = sharded->spec;
  const int num_shards = spec.num_shards();
  sharded->shards.resize(num_shards);
  // Directed edges into each shard's owned regions, self loops excluded.
  std::vector<int64_t> spatial_edges(num_shards, 0);
  std::vector<int64_t> road_edges(num_shards, 0);

  // Shared read-only inputs for the per-shard builders: which region (and
  // hence shard) each road intersection falls in.
  const int num_inter = c.roads.num_intersections();
  std::vector<int> region_of(num_inter);
  std::vector<std::vector<int>> inter_by_shard(num_shards);
  for (int i = 0; i < num_inter; ++i) {
    const auto& p = c.roads.intersection(i);
    region_of[i] = grid.RegionAt(p.x, p.y);
    inter_by_shard[spec.ShardOf(grid, region_of[i])].push_back(i);
  }

  // Shards build independently: each collects only the edges whose
  // destination it owns, so transient memory per worker is O(E/shards).
  ParallelFor(0, num_shards, 1, [&](int64_t begin, int64_t end) {
    for (int s = static_cast<int>(begin); s < static_cast<int>(end); ++s) {
      UrgShard& shard = sharded->shards[s];
      shard.shard_id = s;
      shard.bounds = spec.TileBounds(grid, s);
      const int r0 = shard.bounds[0], c0 = shard.bounds[1];
      const int r1 = shard.bounds[2], c1 = shard.bounds[3];
      shard.num_owned = (r1 - r0) * (c1 - c0);

      // (dst_local, src_global) pairs, self loops included.
      std::vector<std::pair<int, int>> edges;
      for (int row = r0; row < r1; ++row) {
        for (int col = c0; col < c1; ++col) {
          const int dst = grid.RegionId(row, col);
          const int dst_local = shard.OwnedLocal(grid, dst);
          edges.emplace_back(dst_local, dst);  // Self loop.
          if (options.use_spatial_edges) {
            for (int dr = -1; dr <= 1; ++dr) {
              for (int dc = -1; dc <= 1; ++dc) {
                if (dr == 0 && dc == 0) continue;
                if (!grid.InBounds(row + dr, col + dc)) continue;
                edges.emplace_back(dst_local,
                                   grid.RegionId(row + dr, col + dc));
                ++spatial_edges[s];
              }
            }
          }
        }
      }

      if (options.use_road_edges && num_inter > 0) {
        // Region pairs with an owned endpoint: bounded BFS from every
        // intersection inside an owned region. Hop reachability on the
        // undirected road graph is symmetric, so every pair (a, b) of
        // RoadNetwork::BuildRegionConnectivityEdges is discovered both by
        // a's owner and by b's owner.
        std::unordered_set<int64_t> pair_keys;
        std::vector<int> depth(num_inter, -1);
        std::vector<int> touched;
        std::deque<int> queue;
        for (const int start : inter_by_shard[s]) {
          const int ra = region_of[start];
          queue.clear();
          queue.push_back(start);
          depth[start] = 0;
          touched.push_back(start);
          while (!queue.empty()) {
            const int u = queue.front();
            queue.pop_front();
            if (depth[u] == options.road_max_hops) continue;
            for (int v : c.roads.Neighbors(u)) {
              if (depth[v] != -1) continue;
              depth[v] = depth[u] + 1;
              touched.push_back(v);
              queue.push_back(v);
              const int rb = region_of[v];
              if (rb != ra) {
                const int lo = std::min(ra, rb);
                const int hi = std::max(ra, rb);
                pair_keys.insert(static_cast<int64_t>(lo) * n + hi);
              }
            }
          }
          for (int t : touched) depth[t] = -1;
          touched.clear();
        }
        for (const int64_t key : pair_keys) {
          const int lo = static_cast<int>(key / n);
          const int hi = static_cast<int>(key % n);
          if (spec.ShardOf(grid, lo) == s) {
            edges.emplace_back(shard.OwnedLocal(grid, lo), hi);
            ++road_edges[s];
          }
          if (spec.ShardOf(grid, hi) == s) {
            edges.emplace_back(shard.OwnedLocal(grid, hi), lo);
            ++road_edges[s];
          }
        }
      }

      // Halo table: sorted global ids of sources the shard does not own.
      std::vector<int> halo;
      for (const auto& e : edges) {
        if (spec.ShardOf(grid, e.second) != s) halo.push_back(e.second);
      }
      std::sort(halo.begin(), halo.end());
      halo.erase(std::unique(halo.begin(), halo.end()), halo.end());
      shard.halo = std::move(halo);

      // Map sources to local indices, then assemble the dst-grouped CSR
      // (spatial and road relations can duplicate an edge; dedupe).
      for (auto& e : edges) {
        if (spec.ShardOf(grid, e.second) == s) {
          e.second = shard.OwnedLocal(grid, e.second);
        } else {
          const auto it = std::lower_bound(shard.halo.begin(),
                                           shard.halo.end(), e.second);
          e.second = shard.num_owned +
                     static_cast<int>(it - shard.halo.begin());
        }
      }
      std::sort(edges.begin(), edges.end());
      edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

      const int local_nodes =
          shard.num_owned + static_cast<int>(shard.halo.size());
      auto offsets = std::make_shared<std::vector<int>>(local_nodes + 1, 0);
      auto neighbors = std::make_shared<std::vector<int>>();
      neighbors->reserve(edges.size());
      for (const auto& e : edges) {
        ++(*offsets)[e.first + 1];
        neighbors->push_back(e.second);
      }
      for (int i = 0; i < local_nodes; ++i) {
        (*offsets)[i + 1] += (*offsets)[i];
      }
      shard.local = graph::CsrGraph::FromCsrArrays(local_nodes, offsets,
                                                   neighbors);
    }
  });

  // Global degrees (self loop included) for subgraph GCN normalization,
  // plus the Table I edge totals. Every directed edge is counted exactly
  // once, by its destination's owning shard.
  sharded->global_degree.assign(n, 0);
  int64_t union_edges = 0;
  for (int s = 0; s < num_shards; ++s) {
    const UrgShard& shard = sharded->shards[s];
    urg->num_spatial_edges += spatial_edges[s];
    urg->num_road_edges += road_edges[s];
    union_edges += shard.local.num_edges();
    for (int local = 0; local < shard.num_owned; ++local) {
      sharded->global_degree[shard.GlobalOf(grid, local)] =
          shard.local.Degree(local);
    }
  }
  urg->num_edges = union_edges - n;
  urg->sharded = std::move(sharded);
}

}  // namespace

void ShardedUrg::InNeighborsGlobal(int id, std::vector<int>* out) const {
  UV_CHECK_GE(id, 0);
  UV_CHECK_LT(id, num_regions());
  const UrgShard& shard = shards[spec.ShardOf(grid, id)];
  const int local = shard.OwnedLocal(grid, id);
  const auto& off = *shard.local.offsets();
  const auto& nbr = *shard.local.neighbors();
  const size_t first = out->size();
  for (int e = off[local]; e < off[local + 1]; ++e) {
    out->push_back(shard.GlobalOf(grid, nbr[e]));
  }
  // Segments are sorted by local index (owned first, halo after), which is
  // not global order; restore it so callers see the global segment.
  std::sort(out->begin() + static_cast<int64_t>(first), out->end());
}

std::shared_ptr<ShardedUrg> ShardedUrg::FromCsr(const graph::GridSpec& grid,
                                                graph::CsrGraph adjacency) {
  const int n = static_cast<int>(grid.num_regions());
  UV_CHECK_EQ(adjacency.num_nodes(), n);
  auto sharded = std::make_shared<ShardedUrg>();
  sharded->grid = grid;
  sharded->spec = graph::MakeShardSpec(grid, 1);
  sharded->global_degree.resize(n);
  for (int id = 0; id < n; ++id) {
    sharded->global_degree[id] = adjacency.Degree(id);
  }
  UrgShard& shard = sharded->shards.emplace_back();
  shard.bounds = sharded->spec.TileBounds(grid, 0);
  shard.num_owned = n;
  shard.local = std::move(adjacency);
  return sharded;
}

std::vector<int> UrbanRegionGraph::LabeledIds() const {
  std::vector<int> ids;
  for (int i = 0; i < static_cast<int>(labels.size()); ++i) {
    if (labels[i] >= 0) ids.push_back(i);
  }
  return ids;
}

UrbanRegionGraph BuildUrg(const synth::City& city, const UrgOptions& options) {
  UrbanRegionGraph urg = UrgFromCity(city);
  BuildTopology(city, options, /*target_shards=*/1, &urg);

  // --- Region features (Section IV-B). -----------------------------------
  Tensor image;
  if (options.feature_ablation != FeatureAblation::kNoImage &&
      city.images != nullptr) {
    obs::SpanGuard span("encode_tiles", obs::SpanLevel::kFine, "tiles",
                        city.images->rows());
    image = features::ConvEncoder(TileEncoderOptions(city, options))
                .Encode(*city.images);
    if (options.standardize_features) StandardizeColumnsInPlace(&image);
  } else {
    // Regions characterized by POI features only; keep a minimal zero block
    // so every model sees the same two-modality interface.
    image = Tensor(city.num_regions(),
                   std::max(8, options.image_feature_dim / 8));
  }
  urg.features = std::make_shared<ResidentFeatureStore>(
      PoiBlock(city, options), std::move(image));

  UV_LOG_INFO("URG %s: %d regions, %lld edges (%lld spatial, %lld road)",
              urg.city_name.c_str(), urg.num_regions(),
              static_cast<long long>(urg.num_edges),
              static_cast<long long>(urg.num_spatial_edges),
              static_cast<long long>(urg.num_road_edges));
  return urg;
}

UrbanRegionGraph BuildShardedUrg(std::shared_ptr<const synth::City> city,
                                 const UrgOptions& options,
                                 const ShardOptions& shard_options) {
  UV_CHECK(city != nullptr);
  const synth::City& c = *city;
  const int n = c.num_regions();
  UrbanRegionGraph urg = UrgFromCity(c);
  BuildTopology(c, options, ResolveShardTarget(shard_options.num_shards),
                &urg);

  // --- Features: resident POIs, render-on-demand images. ------------------
  Tensor poi = PoiBlock(c, options);
  if (options.feature_ablation == FeatureAblation::kNoImage) {
    // POI-only ablation: a small resident zero block, like BuildUrg.
    urg.features = std::make_shared<ResidentFeatureStore>(
        std::move(poi),
        Tensor(n, std::max(8, options.image_feature_dim / 8)));
  } else {
    urg.features = std::make_shared<LazyFeatureStore>(
        city, std::move(poi), TileEncoderOptions(c, options),
        options.standardize_features, shard_options.feature_store);
  }

  const graph::ShardSpec& spec = urg.sharded->spec;
  UV_LOG_INFO(
      "Sharded URG %s: %d regions, %d shards (%dx%d), %lld edges "
      "(%lld spatial, %lld road)",
      urg.city_name.c_str(), n, spec.num_shards(), spec.shards_y,
      spec.shards_x, static_cast<long long>(urg.num_edges),
      static_cast<long long>(urg.num_spatial_edges),
      static_cast<long long>(urg.num_road_edges));
  return urg;
}

std::array<int, 4> MainUrbanAreaBounds(const synth::City& city,
                                       double fraction) {
  UV_CHECK(fraction > 0.0 && fraction <= 1.0);
  const auto& grid = city.grid;
  const int64_t total = static_cast<int64_t>(city.pois.size());
  if (total == 0) return {0, 0, grid.height - 1, grid.width - 1};

  // Count POIs per row and per column, then shrink a centred frame greedily
  // from whichever side loses the fewest POIs until just before the kept
  // fraction would drop below the target.
  std::vector<int64_t> row_count(grid.height, 0), col_count(grid.width, 0);
  for (const auto& poi : city.pois) {
    const int id = grid.RegionAt(poi.x, poi.y);
    ++row_count[grid.RowOf(id)];
    ++col_count[grid.ColOf(id)];
  }
  int r0 = 0, r1 = grid.height - 1, c0 = 0, c1 = grid.width - 1;
  int64_t kept = total;
  const int64_t min_keep =
      static_cast<int64_t>(fraction * static_cast<double>(total));
  while (true) {
    // Candidate trims and their POI cost.
    int64_t best_cost = -1;
    int which = -1;
    const int64_t costs[4] = {row_count[r0], row_count[r1], col_count[c0],
                              col_count[c1]};
    for (int k = 0; k < 4; ++k) {
      if ((k < 2 && r1 - r0 < 2) || (k >= 2 && c1 - c0 < 2)) continue;
      if (best_cost < 0 || costs[k] < best_cost) {
        best_cost = costs[k];
        which = k;
      }
    }
    if (which < 0 || kept - best_cost < min_keep) break;
    kept -= best_cost;
    if (which == 0) ++r0;
    else if (which == 1) --r1;
    else if (which == 2) ++c0;
    else --c1;
  }
  return {r0, c0, r1, c1};
}

}  // namespace uv::urg
