#include "urg/neighbor_sampler.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <unordered_map>
#include <utility>

#include "autograd/variable.h"
#include "util/check.h"
#include "util/rng.h"

namespace uv::urg {

// splitmix64 finalizer over (seed, salt): every node gets a private fanout
// stream independent of batch composition and visit order.
uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace {

int EnvInt(const char* name, int fallback) {
  if (const char* v = std::getenv(name)) {
    const int parsed = std::atoi(v);
    if (parsed > 0) return parsed;
  }
  return fallback;
}

}  // namespace

MinibatchConfig MinibatchConfig::FromEnv(const MinibatchConfig& base) {
  MinibatchConfig cfg = base;
  cfg.batch_size = EnvInt("UV_BATCH", cfg.batch_size);
  cfg.fanout = EnvInt("UV_FANOUT", cfg.fanout);
  return cfg;
}

NeighborView::NeighborView(const UrbanRegionGraph& urg)
    : sharded_(urg.sharded.get()) {
  UV_CHECK(sharded_ != nullptr);
  UV_CHECK_GT(sharded_->num_regions(), 0);
}

SampledSubgraph SampleKHop(const NeighborView& view,
                           const std::vector<int>& seeds,
                           const MinibatchConfig& cfg) {
  UV_CHECK(!seeds.empty());
  UV_CHECK_GT(cfg.hops, 0);

  SampledSubgraph sg;
  sg.num_seeds = static_cast<int>(seeds.size());
  std::unordered_map<int, int> local_of;
  local_of.reserve(seeds.size() * 4);
  for (const int s : seeds) {
    UV_CHECK_GE(s, 0);
    UV_CHECK_LT(s, view.num_regions());
    const bool inserted =
        local_of.emplace(s, static_cast<int>(sg.nodes.size())).second;
    UV_CHECK(inserted);  // Seeds must be unique.
    sg.nodes.push_back(s);
  }

  auto offsets = std::make_shared<std::vector<int>>();
  auto src_ids = std::make_shared<std::vector<int>>();
  auto dst_ids = std::make_shared<std::vector<int>>();
  offsets->push_back(0);

  // Process local dsts in order; every node discovered at depth < hops gets
  // its (sampled) in-segment, so the edge stream is dst-grouped for free.
  std::vector<int> candidates;
  std::vector<int> selected;
  int level_end = static_cast<int>(sg.nodes.size());
  int depth = 0;
  for (int dst = 0; dst < static_cast<int>(sg.nodes.size()); ++dst) {
    if (dst == level_end) {
      ++depth;
      level_end = static_cast<int>(sg.nodes.size());
    }
    const int dst_global = sg.nodes[dst];
    if (depth >= cfg.hops) {
      // Beyond the last hop: a self loop keeps the node's features flowing
      // to its own row, but no further frontier is opened.
      src_ids->push_back(dst);
      dst_ids->push_back(dst);
      offsets->push_back(static_cast<int>(src_ids->size()));
      continue;
    }

    candidates.clear();
    view.InNeighbors(dst_global, &candidates);
    // The self loop is always kept; sample among the true neighbors.
    candidates.erase(
        std::remove(candidates.begin(), candidates.end(), dst_global),
        candidates.end());
    selected.clear();
    if (cfg.fanout > 0 &&
        static_cast<int>(candidates.size()) > cfg.fanout) {
      // Partial Fisher-Yates over the ascending candidate list with the
      // node's private stream: the draw depends only on (seed, node).
      Rng rng(MixSeed(cfg.seed, static_cast<uint64_t>(dst_global)));
      const int m = static_cast<int>(candidates.size());
      for (int i = 0; i < cfg.fanout; ++i) {
        const int j = i + rng.UniformInt(m - i);
        std::swap(candidates[i], candidates[j]);
      }
      selected.assign(candidates.begin(), candidates.begin() + cfg.fanout);
      std::sort(selected.begin(), selected.end());
    } else {
      selected = candidates;
    }
    selected.push_back(dst_global);  // Self loop, in sorted position below.
    std::sort(selected.begin(), selected.end());

    for (const int src_global : selected) {
      // try_emplace: most sources are already mapped, and emplace would
      // heap-allocate (then free) a map node for every one of them.
      auto [it, inserted] =
          local_of.try_emplace(src_global, static_cast<int>(sg.nodes.size()));
      if (inserted) sg.nodes.push_back(src_global);
      src_ids->push_back(it->second);
      dst_ids->push_back(dst);
    }
    offsets->push_back(static_cast<int>(src_ids->size()));
  }

  // GCN norms from PARENT degrees: the sampled subgraph must normalize like
  // the full graph or fanout=0 would not reproduce full-graph outputs.
  const int64_t num_edges = static_cast<int64_t>(src_ids->size());
  sg.gcn_norm = Tensor::Uninit(static_cast<int>(num_edges), 1);
  for (int64_t e = 0; e < num_edges; ++e) {
    const double d1 =
        std::max(1, view.GlobalDegree(sg.nodes[(*dst_ids)[e]]));
    const double d2 =
        std::max(1, view.GlobalDegree(sg.nodes[(*src_ids)[e]]));
    sg.gcn_norm.at(static_cast<int>(e), 0) =
        static_cast<float>(1.0 / std::sqrt(d1 * d2));
  }

  sg.offsets = std::move(offsets);
  sg.src_ids = std::move(src_ids);
  sg.dst_ids = std::move(dst_ids);
  return sg;
}

SubgraphFeatures GatherSubgraphFeatures(const UrbanRegionGraph& urg,
                                        const SampledSubgraph& sg) {
  SubgraphFeatures out;
  Tensor poi;
  urg.GatherPoiRows(sg.nodes, &poi);
  out.poi = ag::MakeConst(std::move(poi));
  Tensor image;
  urg.GatherImageRows(sg.nodes, &image);
  out.image = ag::MakeConst(std::move(image));
  return out;
}

nn::GraphContext ContextFromSubgraph(const SampledSubgraph& sg) {
  nn::GraphContext ctx;
  ctx.num_nodes = sg.num_nodes();
  ctx.offsets = sg.offsets;
  ctx.src_ids = sg.src_ids;
  ctx.dst_ids = sg.dst_ids;
  ctx.gcn_norm = ag::MakeConst(sg.gcn_norm);
  return ctx;
}

}  // namespace uv::urg
