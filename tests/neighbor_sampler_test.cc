#include "urg/neighbor_sampler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "core/batch_plan.h"
#include "core/cmsf_detector.h"
#include "core/cmsf_model.h"
#include "eval/runner.h"
#include "features/image_encoder.h"
#include "features/poi_features.h"
#include "graph/road_network.h"
#include "infer/engine.h"
#include "nn/graph_context.h"
#include "obs/metrics.h"
#include "synth/city.h"
#include "tensor/tensor_ops.h"
#include "test_helpers.h"
#include "util/buffer_pool.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace uv::urg {
namespace {

std::shared_ptr<const synth::City> TinyCity(uint64_t seed = 11) {
  return std::make_shared<const synth::City>(
      synth::GenerateCity(uv::testing::TinyCityConfig(seed)));
}

UrgOptions SmallOptions() {
  UrgOptions options;
  options.image_feature_dim = 32;
  return options;
}

UrbanRegionGraph OneShard(const std::shared_ptr<const synth::City>& city) {
  return BuildUrg(*city, SmallOptions());
}

UrbanRegionGraph Sharded(
    const std::shared_ptr<const synth::City>& city, int num_shards,
    int cache_rows = LazyFeatureStore::Options{}.cache_rows) {
  ShardOptions shard;
  shard.num_shards = num_shards;
  // Statistics over the whole tiny city so lazy features match eager ones.
  shard.feature_store.stats_sample = 1 << 20;
  shard.feature_store.cache_rows = cache_rows;
  return BuildShardedUrg(city, SmallOptions(), shard);
}

// The URG relations built independently of the shard builder: the graph
// library's spatial-proximity and road-connectivity edge lists (Section
// IV-A), unioned into one dst-grouped CSR with self loops.
struct ReferenceGraph {
  graph::CsrGraph csr;
  int64_t num_spatial_edges = 0;
  int64_t num_road_edges = 0;
};

ReferenceGraph Reference(const synth::City& city) {
  std::vector<graph::Edge> edges = graph::BuildSpatialProximityEdges(city.grid);
  const std::vector<graph::Edge> road = city.roads.BuildRegionConnectivityEdges(
      city.grid, SmallOptions().road_max_hops);
  ReferenceGraph ref;
  ref.num_spatial_edges = static_cast<int64_t>(edges.size());
  ref.num_road_edges = static_cast<int64_t>(road.size());
  edges.insert(edges.end(), road.begin(), road.end());
  ref.csr = graph::CsrGraph::FromEdges(city.num_regions(), edges,
                                       /*symmetrize=*/false,
                                       /*add_self_loops=*/true);
  return ref;
}

// The eager feature pipeline, computed in the test: standardized POI
// features and standardized ConvEncoder features of the city's tiles.
struct ReferenceFeatures {
  Tensor poi;
  Tensor image;
};

ReferenceFeatures EagerFeatures(const synth::City& city) {
  ReferenceFeatures ref;
  ref.poi = features::BuildPoiFeatures(city);
  StandardizeColumnsInPlace(&ref.poi);
  features::ConvEncoder::Options enc;
  enc.image_size = city.config.image_size;
  enc.out_dim = SmallOptions().image_feature_dim;
  enc.seed = SmallOptions().encoder_seed;
  ref.image = features::ConvEncoder(enc).Encode(*city.images);
  StandardizeColumnsInPlace(&ref.image);
  return ref;
}

using uv::testing::SameBytes;

// The URGs every representation test covers: BuildUrg's one shard and
// BuildShardedUrg at 1, 4 and 6 shards.
std::vector<UrbanRegionGraph> EveryShardCount(
    const std::shared_ptr<const synth::City>& city) {
  std::vector<UrbanRegionGraph> urgs;
  urgs.push_back(OneShard(city));
  for (const int shards : {1, 4, 6}) urgs.push_back(Sharded(city, shards));
  return urgs;
}

// All (dst -> sorted global sources) segments reconstructed from the
// shards.
std::vector<std::vector<int>> ShardedSegments(const UrbanRegionGraph& urg) {
  const ShardedUrg& s = *urg.sharded;
  std::vector<std::vector<int>> segs(s.num_regions());
  for (const auto& shard : s.shards) {
    const auto& off = *shard.local.offsets();
    const auto& nbr = *shard.local.neighbors();
    for (int l = 0; l < shard.num_owned; ++l) {
      const int dst = shard.GlobalOf(s.grid, l);
      for (int e = off[l]; e < off[l + 1]; ++e) {
        segs[dst].push_back(shard.GlobalOf(s.grid, nbr[e]));
      }
    }
  }
  for (auto& v : segs) std::sort(v.begin(), v.end());
  return segs;
}

void ExpectSubgraphsIdentical(const SampledSubgraph& a,
                              const SampledSubgraph& b) {
  ASSERT_EQ(a.nodes, b.nodes);
  ASSERT_EQ(a.num_seeds, b.num_seeds);
  ASSERT_EQ(*a.offsets, *b.offsets);
  ASSERT_EQ(*a.src_ids, *b.src_ids);
  ASSERT_EQ(*a.dst_ids, *b.dst_ids);
  ASSERT_EQ(a.gcn_norm.rows(), b.gcn_norm.rows());
  ASSERT_EQ(0, std::memcmp(a.gcn_norm.data(), b.gcn_norm.data(),
                           sizeof(float) * a.gcn_norm.size()));
}

TEST(ShardedUrgTest, ReconstructsDenseAdjacencyExactly) {
  auto city = TinyCity();
  const ReferenceGraph ref = Reference(*city);
  const int n = city->num_regions();
  const std::vector<UrbanRegionGraph> urgs = EveryShardCount(city);
  for (const UrbanRegionGraph& sh : urgs) {
    ASSERT_NE(sh.sharded, nullptr);
    const size_t shards = sh.sharded->shards.size();
    EXPECT_GE(shards, 1u);
    const auto segs = ShardedSegments(sh);
    const NeighborView view(sh);
    for (int r = 0; r < n; ++r) {
      EXPECT_EQ(segs[r], ref.csr.InNeighbors(r))
          << "dst " << r << " shards " << shards;
      std::vector<int> viewed;
      view.InNeighbors(r, &viewed);
      EXPECT_EQ(viewed, segs[r]) << "dst " << r << " shards " << shards;
      EXPECT_EQ(sh.sharded->global_degree[r], ref.csr.Degree(r));
    }
    EXPECT_EQ(sh.num_edges, ref.csr.num_edges() - n);
    EXPECT_EQ(sh.num_spatial_edges, ref.num_spatial_edges);
    EXPECT_EQ(sh.num_road_edges, ref.num_road_edges);
  }
  EXPECT_EQ(urgs[1].sharded->shards.size(), 1u);
  EXPECT_EQ(urgs[2].sharded->shards.size(), 4u);
  EXPECT_EQ(urgs[3].sharded->shards.size(), 6u);
  // BuildUrg's one shard owns every region: its CSR is the reference.
  const graph::CsrGraph& one = urgs[0].sharded->shards[0].local;
  ASSERT_EQ(urgs[0].sharded->shards.size(), 1u);
  EXPECT_TRUE(urgs[0].sharded->shards[0].halo.empty());
  EXPECT_EQ(*one.offsets(), *ref.csr.offsets());
  EXPECT_EQ(*one.neighbors(), *ref.csr.neighbors());
}

TEST(ShardedUrgTest, HaloRegionsAreSortedNonOwnedSources) {
  auto city = TinyCity();
  const UrbanRegionGraph sh = Sharded(city, 4);
  const ShardedUrg& s = *sh.sharded;
  ASSERT_GT(static_cast<int>(s.shards.size()), 1);
  for (const auto& shard : s.shards) {
    // Sorted, unique, and outside the shard's owned tile.
    ASSERT_TRUE(std::is_sorted(shard.halo.begin(), shard.halo.end()));
    ASSERT_EQ(std::adjacent_find(shard.halo.begin(), shard.halo.end()),
              shard.halo.end());
    for (const int id : shard.halo) {
      const int r = s.grid.RowOf(id), c = s.grid.ColOf(id);
      EXPECT_FALSE(r >= shard.bounds[0] && r < shard.bounds[2] &&
                   c >= shard.bounds[1] && c < shard.bounds[3])
          << "halo id " << id << " is owned by shard " << shard.shard_id;
    }
    // Every halo slot is referenced by at least one in-edge.
    std::vector<char> used(shard.halo.size(), 0);
    for (const int src : *shard.local.neighbors()) {
      if (src >= shard.num_owned) used[src - shard.num_owned] = 1;
    }
    for (size_t i = 0; i < used.size(); ++i) {
      EXPECT_TRUE(used[i]) << "unreferenced halo entry " << shard.halo[i];
    }
  }
}

TEST(NeighborSamplerTest, KHopClosureMatchesBruteForce) {
  auto city = TinyCity();
  const UrbanRegionGraph urg = OneShard(city);
  const graph::CsrGraph reference = Reference(*city).csr;
  const NeighborView view(urg);
  const std::vector<int> seeds = {0, 37, 201, 514};
  MinibatchConfig cfg;
  cfg.fanout = 0;  // Exact closure.
  cfg.hops = 2;
  const SampledSubgraph sg = SampleKHop(view, seeds, cfg);
  ASSERT_EQ(sg.num_seeds, static_cast<int>(seeds.size()));

  // Brute-force level sets over the reference adjacency.
  std::set<int> level0(seeds.begin(), seeds.end());
  auto expand = [&](const std::set<int>& frontier) {
    std::set<int> out = frontier;
    for (const int id : frontier) {
      for (const int src : reference.InNeighbors(id)) out.insert(src);
    }
    return out;
  };
  const std::set<int> level1 = expand(level0);
  const std::set<int> level2 = expand(level1);
  const std::set<int> got(sg.nodes.begin(), sg.nodes.end());
  EXPECT_EQ(got, level2);

  // Nodes below the last hop keep their full in-segments; frontier nodes
  // carry only a self loop.
  const auto& off = *sg.offsets;
  const auto& src = *sg.src_ids;
  for (int l = 0; l < sg.num_nodes(); ++l) {
    const int global = sg.nodes[l];
    std::vector<int> sources;
    for (int e = off[l]; e < off[l + 1]; ++e) {
      sources.push_back(sg.nodes[src[e]]);
    }
    std::sort(sources.begin(), sources.end());
    if (level1.count(global) > 0) {
      EXPECT_EQ(sources, reference.InNeighbors(global))
          << "node " << global;
    } else {
      EXPECT_EQ(sources, std::vector<int>{global}) << "frontier " << global;
    }
  }
}

TEST(NeighborSamplerTest, FanoutSamplesAreValidAndBatchInvariant) {
  auto city = TinyCity();
  const UrbanRegionGraph urg = OneShard(city);
  const NeighborView view(urg);
  MinibatchConfig cfg;
  cfg.fanout = 3;
  cfg.hops = 2;
  cfg.seed = 77;

  auto seed_sources = [&](const SampledSubgraph& sg) {
    std::vector<int> out;
    for (int e = (*sg.offsets)[0]; e < (*sg.offsets)[1]; ++e) {
      out.push_back(sg.nodes[(*sg.src_ids)[e]]);
    }
    std::sort(out.begin(), out.end());
    return out;
  };

  const SampledSubgraph alone = SampleKHop(view, {5}, cfg);
  const SampledSubgraph batched = SampleKHop(view, {5, 99, 340}, cfg);
  const std::vector<int> sources = seed_sources(alone);

  // Same node, same cfg.seed => identical draw regardless of the batch.
  EXPECT_EQ(sources, seed_sources(batched));
  // Valid: a subset of the full segment, self loop included, exactly
  // min(fanout, deg - 1) sampled neighbors + self.
  const std::vector<int> full = Reference(*city).csr.InNeighbors(5);
  for (const int s : sources) {
    EXPECT_TRUE(std::binary_search(full.begin(), full.end(), s));
  }
  EXPECT_TRUE(std::binary_search(sources.begin(), sources.end(), 5));
  const int expected =
      std::min(cfg.fanout, static_cast<int>(full.size()) - 1) + 1;
  EXPECT_EQ(static_cast<int>(sources.size()), expected);

  // Re-sampling with the same config is bit-identical.
  ExpectSubgraphsIdentical(batched, SampleKHop(view, {5, 99, 340}, cfg));
  // A different seed changes the draw for a high-degree node.
  MinibatchConfig other = cfg;
  other.seed = 78;
  bool any_differs = false;
  for (const int id : {5, 99, 340}) {
    if (seed_sources(SampleKHop(view, {id}, cfg)) !=
        seed_sources(SampleKHop(view, {id}, other))) {
      any_differs = true;
    }
  }
  EXPECT_TRUE(any_differs);
}

TEST(NeighborSamplerTest, BitIdenticalAcrossThreadsPoolAndRepresentation) {
  const int original_threads = ThreadPool::Global().num_threads();
  const bool original_pool = BufferPool::Enabled();
  auto city = TinyCity();
  const std::vector<int> seeds = {3, 88, 212, 399, 555};
  MinibatchConfig cfg;
  cfg.fanout = 4;
  cfg.hops = 2;
  cfg.seed = 2023;

  const UrbanRegionGraph reference_urg = OneShard(city);
  const SampledSubgraph reference =
      SampleKHop(NeighborView(reference_urg), seeds, cfg);

  for (const int threads : {1, 4}) {
    for (const bool pool : {true, false}) {
      ThreadPool::SetGlobalThreads(threads);
      BufferPool::SetEnabled(pool);
      const UrbanRegionGraph one_shard = OneShard(city);
      const UrbanRegionGraph sharded = Sharded(city, 4);
      ExpectSubgraphsIdentical(
          reference, SampleKHop(NeighborView(one_shard), seeds, cfg));
      ExpectSubgraphsIdentical(reference,
                               SampleKHop(NeighborView(sharded), seeds, cfg));
    }
  }
  ThreadPool::SetGlobalThreads(original_threads);
  BufferPool::SetEnabled(original_pool);
}

// With statistics over the whole city, lazy rows are the eager pipeline's
// bytes (the LazyFeatureStore contract).
TEST(FeatureStoreTest, LazyRowsMatchEagerFeatures) {
  auto city = TinyCity();
  const UrbanRegionGraph eager = OneShard(city);
  const UrbanRegionGraph sharded = Sharded(city, 2);
  ASSERT_EQ(sharded.PoiDim(), eager.PoiDim());
  ASSERT_EQ(sharded.ImageDim(), eager.ImageDim());

  const std::vector<int> ids = {0, 5, 5, 123, 42, 575};
  Tensor poi, img, eager_poi, eager_img;
  sharded.GatherPoiRows(ids, &poi);
  sharded.GatherImageRows(ids, &img);
  eager.GatherPoiRows(ids, &eager_poi);
  eager.GatherImageRows(ids, &eager_img);
  EXPECT_TRUE(SameBytes(poi, eager_poi));
  EXPECT_TRUE(SameBytes(img, eager_img));

  // Every region in one call: a miss batch that spans three encoder chunks.
  std::vector<int> all(city->num_regions());
  for (int i = 0; i < city->num_regions(); ++i) all[i] = i;
  Tensor all_img, eager_all_img;
  sharded.GatherImageRows(all, &all_img);
  eager.GatherImageRows(all, &eager_all_img);
  EXPECT_TRUE(SameBytes(all_img, eager_all_img));

  // A second gather is served from the resident rows and returns identical
  // rows.
  auto store = std::dynamic_pointer_cast<LazyFeatureStore>(sharded.features);
  ASSERT_NE(store, nullptr);
  const uint64_t hits_before = store->cache_hits();
  Tensor again;
  sharded.GatherImageRows(ids, &again);
  EXPECT_GT(store->cache_hits(), hits_before);
  EXPECT_EQ(0, std::memcmp(img.data(), again.data(),
                           sizeof(float) * img.size()));
}

// Frequency-aware admission: a hot set that every gather asks for stays
// resident while one-off scan ids pass through a smaller cache. Recency
// would let each gather's scan ids evict the hot rows instead.
TEST(FeatureStoreTest, HotSetStaysResidentThroughScans) {
  auto city = TinyCity();
  const UrbanRegionGraph eager = OneShard(city);
  const UrbanRegionGraph sharded = Sharded(city, 2, /*cache_rows=*/8);
  auto store = std::dynamic_pointer_cast<LazyFeatureStore>(sharded.features);
  ASSERT_NE(store, nullptr);
  const uint64_t hits0 = store->cache_hits();
  const uint64_t misses0 = store->cache_misses();
  for (int g = 0; g < 5; ++g) {
    // The hot set {0, 1, 2, 3} (0 twice: the repeat is a hit) and six scan
    // ids no other gather asks for.
    std::vector<int> ids = {0, 1, 2, 3, 0};
    for (int i = 0; i < 6; ++i) ids.push_back(100 + 6 * g + i);
    Tensor img, eager_img;
    sharded.GatherImageRows(ids, &img);
    eager.GatherImageRows(ids, &eager_img);
    EXPECT_TRUE(SameBytes(img, eager_img)) << "gather " << g;
  }
  // Gather 0 misses its ten distinct ids; all were asked for once, so the
  // eight lowest ids stay. Each later gather hits its five hot requests and
  // misses its six scan ids, which tie the resident scan rows on one
  // request each and lose the tie to them.
  EXPECT_EQ(store->cache_hits() - hits0, 1u + 4u * 5u);
  EXPECT_EQ(store->cache_misses() - misses0, 10u + 4u * 6u);
  Tensor hot;
  sharded.GatherImageRows({3, 2, 1, 0}, &hot);
  EXPECT_EQ(store->cache_hits() - hits0, 25u);
  EXPECT_EQ(store->cache_misses() - misses0, 34u);
}

// Admission only picks which rows stay resident: random gather sequences,
// with repeated ids and batches larger than the cache, return the eager
// rows at every cache size.
TEST(FeatureStoreTest, RandomGathersMatchEagerRowsAtAnyCacheSize) {
  auto city = TinyCity();
  const int n = city->num_regions();
  const Tensor eager = uv::testing::ImageRows(OneShard(city));
  for (const int cache_rows : {1, 3, 64, n}) {
    const UrbanRegionGraph sharded = Sharded(city, 2, cache_rows);
    auto store = std::dynamic_pointer_cast<LazyFeatureStore>(sharded.features);
    ASSERT_NE(store, nullptr);
    Rng rng(static_cast<uint64_t>(cache_rows));
    std::set<int> distinct;
    uint64_t requested = 0;
    for (int g = 0; g < 12; ++g) {
      // Mostly a 48-region hot range, so ids repeat within and across
      // gathers, plus a tail over the whole city.
      std::vector<int> ids(1 + rng.UniformInt(160));
      for (int& id : ids) {
        id = rng.Bernoulli(0.7) ? rng.UniformInt(48) : rng.UniformInt(n);
        distinct.insert(id);
      }
      requested += ids.size();
      Tensor img;
      sharded.GatherImageRows(ids, &img);
      ASSERT_EQ(img.rows(), static_cast<int>(ids.size()));
      for (size_t i = 0; i < ids.size(); ++i) {
        ASSERT_EQ(0, std::memcmp(img.row(static_cast<int>(i)),
                                 eager.row(ids[i]),
                                 sizeof(float) * eager.cols()))
            << "cache_rows " << cache_rows << " gather " << g << " row " << i;
      }
    }
    EXPECT_EQ(store->cache_hits() + store->cache_misses(), requested);
    // A cache that holds the city never evicts: one encode per region.
    if (cache_rows == n) {
      EXPECT_EQ(store->cache_misses(), distinct.size());
    }
  }
}

TEST(FeatureStoreTest, TilesRenderedCounterTracksOnDemandRenders) {
  auto city = TinyCity();
  auto& counter = obs::Registry::Global().GetCounter("synth.tiles_rendered");
  const uint64_t before = counter.Value();
  const UrbanRegionGraph sharded = Sharded(city, 2);
  // Construction encodes the statistics sample: the whole tiny city once.
  const uint64_t after_build = counter.Value();
  EXPECT_EQ(after_build - before,
            static_cast<uint64_t>(city->num_regions()));
  // A cold gather renders each unique requested region exactly once.
  Tensor img;
  sharded.GatherImageRows({7, 7, 19, 23}, &img);
  EXPECT_EQ(counter.Value() - after_build, 3u);
}

TEST(ParallelRenderTest, GenerateCityTilesDeterministicAcrossThreads) {
  const int original_threads = ThreadPool::Global().num_threads();
  synth::CityConfig config = uv::testing::TinyCityConfig();
  auto& counter = obs::Registry::Global().GetCounter("synth.tiles_rendered");

  ThreadPool::SetGlobalThreads(1);
  const uint64_t before = counter.Value();
  const synth::City serial = synth::GenerateCity(config);
  EXPECT_EQ(counter.Value() - before,
            static_cast<uint64_t>(serial.num_regions()));

  ThreadPool::SetGlobalThreads(4);
  const synth::City parallel = synth::GenerateCity(config);
  ThreadPool::SetGlobalThreads(original_threads);

  ASSERT_NE(serial.images, nullptr);
  ASSERT_NE(parallel.images, nullptr);
  ASSERT_EQ(serial.images->size(), parallel.images->size());
  EXPECT_EQ(0, std::memcmp(serial.images->data(), parallel.images->data(),
                           sizeof(float) * serial.images->size()));
}

TEST(GridTest, RegionCountIsInt64) {
  const graph::GridSpec grid{60000, 60000, 128.0};
  EXPECT_EQ(grid.num_regions(), 3600000000LL);
}

TEST(ParityTest, MasterPredictionsExactWithoutHierarchy) {
  auto city = TinyCity();
  core::CmsfConfig cfg;
  cfg.use_hierarchy = false;
  cfg.use_gate = false;
  Rng rng(3);
  const UrbanRegionGraph one_shard = OneShard(city);
  const core::CmsfModel model(cfg, one_shard.PoiDim(), one_shard.ImageDim(),
                              &rng);

  std::vector<int> eval_ids;
  for (int i = 0; i < one_shard.num_regions(); i += 7) eval_ids.push_back(i);
  // The reference: the whole-city batch's forward, which whole-city
  // training runs.
  std::vector<float> want;
  {
    ag::NoGradScope no_grad;
    const auto fwd = model.Forward(core::WholeCityInputs(one_shard), nullptr);
    want = core::SigmoidRows(fwd.master_logits->value, eval_ids);
  }
  for (const UrbanRegionGraph& urg : EveryShardCount(city)) {
    const auto got = core::PredictCmsf(model, urg, nullptr, eval_ids);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << urg.sharded->shards.size()
                                 << " shards, eval id " << eval_ids[i];
    }
  }
}

// The whole-city pass is the whole-city batch's trunk, row for row, on any
// shard count, for the MAGA trunk and CMSF-M's per-modality GAT stacks.
TEST(WholeCityTrunkTest, EqualsWholeCityBatchOnEveryShardCount) {
  auto city = TinyCity();
  const UrbanRegionGraph one_shard = OneShard(city);
  for (const bool use_maga : {true, false}) {
    core::CmsfConfig cfg;
    cfg.use_maga = use_maga;
    Rng rng(4);
    const core::CmsfModel model(cfg, one_shard.PoiDim(),
                                one_shard.ImageDim(), &rng);
    Tensor want;
    {
      ag::NoGradScope no_grad;
      want = model.Trunk(core::WholeCityInputs(one_shard))->value;
    }
    for (const UrbanRegionGraph& urg : EveryShardCount(city)) {
      EXPECT_TRUE(SameBytes(core::WholeCityTrunk(model, urg)->value, want))
          << "use_maga " << use_maga << ", "
          << urg.sharded->shards.size() << " shards";
    }
  }
}

// The pass holds one shard's subgraph plus two layers' N-row matrices; the
// whole-city batch holds every region's inputs and every layer's
// intermediates at once.
TEST(WholeCityTrunkTest, PoolPeakBelowWholeCityBatch) {
  auto city = TinyCity();
  const UrbanRegionGraph urg = Sharded(city, 4);
  core::CmsfConfig cfg;
  Rng rng(3);
  const core::CmsfModel model(cfg, urg.PoiDim(), urg.ImageDim(), &rng);
  // Peak growth of the pool's live bytes over a second run of `fn`; the
  // first run fills per-thread scratch that outlives it.
  auto peak_growth = [](const auto& fn) {
    fn();
    BufferPool::ResetPeak();
    const uint64_t base = BufferPool::Stats().pool_bytes;
    fn();
    return BufferPool::Stats().pool_bytes_peak - base;
  };
  const uint64_t pass =
      peak_growth([&] { (void)core::WholeCityTrunk(model, urg); });
  const uint64_t batch = peak_growth([&] {
    ag::NoGradScope no_grad;
    (void)model.Trunk(core::WholeCityInputs(urg));
  });
  EXPECT_GT(pass, 0u);
  EXPECT_LT(pass, batch);
}

// The one-batch premise: the whole-city batch (SampleKHop over every region
// in id order at fanout 0) IS the URG — the edge arrays and GCN norms of
// GraphContext::FromCsr over the reference adjacency and the eager feature
// bytes, on any shard count — and the plan keeps it, together with one
// loss-row vector, across epochs and stages.
TEST(BatchPlanTest, WholeCityBatchIsTheDenseUrgBitForBit) {
  auto city = TinyCity();
  const nn::GraphContext dense =
      nn::GraphContext::FromCsr(Reference(*city).csr);
  const ReferenceFeatures eager = EagerFeatures(*city);
  std::vector<int> ids(static_cast<size_t>(city->num_regions()));
  std::iota(ids.begin(), ids.end(), 0);
  for (const UrbanRegionGraph& sharded : EveryShardCount(city)) {
    const core::BatchInputs batch = core::WholeCityInputs(sharded);
    const size_t shards = sharded.sharded->shards.size();
    EXPECT_EQ(batch.nodes, ids) << shards;
    EXPECT_EQ(batch.ctx.num_nodes, dense.num_nodes) << shards;
    EXPECT_EQ(*batch.ctx.offsets, *dense.offsets) << shards;
    EXPECT_EQ(*batch.ctx.src_ids, *dense.src_ids) << shards;
    EXPECT_EQ(*batch.ctx.dst_ids, *dense.dst_ids) << shards;
    EXPECT_TRUE(SameBytes(batch.ctx.gcn_norm->value, dense.gcn_norm->value))
        << shards;
    EXPECT_TRUE(SameBytes(batch.poi->value, eager.poi)) << shards;
    EXPECT_TRUE(SameBytes(batch.image->value, eager.image)) << shards;
  }

  const UrbanRegionGraph urg = OneShard(city);
  core::BatchPlan plan(/*batch_size=*/0, /*fanout=*/16, /*hops=*/2);
  const core::BatchInputs& batch = *plan.WholeCity(urg);
  EXPECT_EQ(*batch.ctx.src_ids, *dense.src_ids);
  EXPECT_EQ(plan.WholeCity(urg).get(), &batch);

  const std::vector<int> labeled = urg.LabeledIds();
  std::vector<int> labels;
  for (const int id : labeled) labels.push_back(urg.labels[id]);
  plan.SetTrainSet(labeled, labels, /*pos_weight=*/0.0);
  ASSERT_EQ(plan.num_train_batches(), 1);
  const core::Batch& first = plan.TrainBatch(urg, /*seed=*/1, 0, 0);
  EXPECT_TRUE(first.whole_city);
  EXPECT_EQ(first.inputs.get(), &batch);
  EXPECT_EQ(*first.rows, labeled);
  const auto rows = first.rows;
  EXPECT_EQ(plan.TrainBatch(urg, /*seed=*/2, 7, 0).rows, rows);
}

// The slave PU rank loss ranks all K clusters on the whole-city batch but
// only the clusters a sampled batch's nodes populate.
TEST(BatchPlanTest, SlavePuClustersAllOnWholeCityPopulatedOnSampled) {
  auto city = TinyCity();
  const UrbanRegionGraph urg = OneShard(city);
  const int n = urg.num_regions();
  constexpr int kClusters = 30;
  core::CmsfModel::FrozenAssignment frozen;
  for (int id = 0; id < n; ++id) frozen.hard.push_back(id * kClusters / n);
  for (int c = 0; c < kClusters; ++c) frozen.pseudo_labels.push_back(c % 2);
  const std::vector<int> train_ids = {0, 1};
  const std::vector<int> train_labels = {1, 0};

  std::vector<int> positive, unlabeled;
  core::BatchPlan whole_city(/*batch_size=*/0, /*fanout=*/2, /*hops=*/2);
  whole_city.SetTrainSet(train_ids, train_labels, 0.0);
  core::SlavePuClusters(whole_city.TrainBatch(urg, 1, 0, 0), frozen,
                        &positive, &unlabeled);
  std::vector<int> odd, even;
  for (int c = 0; c < kClusters; ++c) (c % 2 ? odd : even).push_back(c);
  EXPECT_EQ(positive, odd);
  EXPECT_EQ(unlabeled, even);

  core::BatchPlan sampled(/*batch_size=*/2, /*fanout=*/2, /*hops=*/2);
  sampled.SetTrainSet(train_ids, train_labels, 0.0);
  const core::Batch& batch = sampled.TrainBatch(urg, 1, 0, 0);
  EXPECT_FALSE(batch.whole_city);
  core::SlavePuClusters(batch, frozen, &positive, &unlabeled);
  std::set<int> populated;
  for (const int node : batch.inputs->nodes) {
    populated.insert(frozen.hard[node]);
  }
  std::vector<int> want_positive, want_unlabeled;
  for (const int c : populated) {
    (c % 2 ? want_positive : want_unlabeled).push_back(c);
  }
  EXPECT_EQ(positive, want_positive);
  EXPECT_EQ(unlabeled, want_unlabeled);
  EXPECT_LT(populated.size(), static_cast<size_t>(kClusters));
}

TEST(ParityTest, FullAndMinibatchGcnMetricsMatch) {
  auto city = TinyCity();
  const UrbanRegionGraph urg = OneShard(city);
  eval::RunnerOptions ropt;
  ropt.num_folds = 3;
  ropt.num_runs = 1;
  ropt.seed = 1234;

  auto factory = [&](int batch_size) {
    return [batch_size](uint64_t seed) {
      baselines::TrainOptions options;
      options.epochs = 12;
      options.seed = seed;
      options.batch_size = batch_size;  // One full-closure batch per epoch.
      options.fanout = 0;
      return baselines::MakeDetector("GCN", options, core::CmsfConfig{});
    };
  };
  const auto full = eval::RunCrossValidation(urg, factory(0), ropt);
  const auto mini = eval::RunCrossValidation(urg, factory(4096), ropt);
  // Identical splits, same loss on the seed rows; only float summation
  // order differs, so the metrics must agree tightly.
  EXPECT_NEAR(full.auc.mean, mini.auc.mean, 0.05);
  EXPECT_NEAR(full.recall3.mean, mini.recall3.mean, 0.15);
}

TEST(CmsfMinibatchTest, TrainsAndScoresOnShardedUrg) {
  auto city = TinyCity();
  const UrbanRegionGraph urg = Sharded(city, 2);
  core::CmsfConfig cfg;
  cfg.master_epochs = 3;
  cfg.slave_epochs = 2;
  cfg.batch_size = 64;
  cfg.fanout = 4;
  cfg.num_clusters = 10;
  cfg.seed = 5;
  core::CmsfDetector detector(cfg);

  const std::vector<int> labeled = urg.LabeledIds();
  ASSERT_GT(labeled.size(), 0u);
  std::vector<int> labels(labeled.size());
  for (size_t i = 0; i < labeled.size(); ++i) labels[i] = urg.labels[labeled[i]];
  detector.Train(urg, labeled, labels);

  EXPECT_EQ(static_cast<int>(detector.frozen().hard.size()),
            urg.num_regions());
  EXPECT_EQ(detector.frozen().soft.rows(), urg.num_regions());
  const auto scores = detector.Score(urg, labeled);
  ASSERT_EQ(scores.size(), labeled.size());
  for (const float p : scores) {
    EXPECT_GE(p, 0.0f);
    EXPECT_LE(p, 1.0f);
  }
}

std::vector<int> LabelsOf(const UrbanRegionGraph& urg,
                          const std::vector<int>& ids) {
  std::vector<int> labels;
  for (const int id : ids) labels.push_back(urg.labels[id]);
  return labels;
}

// A gated CMSF trained on sampled minibatches scores the whole city's
// values: GSCM's cluster sums cover every region, not a chunk's closure, so
// Score equals the engine byte for byte and an id scores the same alone as
// among others.
TEST(CmsfMinibatchTest, ScoresEqualEngineAndSingleIdCalls) {
  auto city = TinyCity();
  const UrbanRegionGraph urg = Sharded(city, 2);
  core::CmsfConfig cfg;
  cfg.master_epochs = 2;
  cfg.slave_epochs = 1;
  cfg.batch_size = 64;
  cfg.fanout = 4;
  cfg.num_clusters = 10;
  const std::vector<int> labeled = urg.LabeledIds();
  core::CmsfDetector detector(cfg);
  detector.Train(urg, labeled, LabelsOf(urg, labeled));

  std::vector<int> ids;
  for (int id = 0; id < urg.num_regions(); id += 7) ids.push_back(id);
  const std::vector<float> scores = detector.Score(urg, ids);
  const std::vector<float> served =
      infer::MakeCmsfEngine(*detector.model(), &detector.frozen(), urg)
          ->Score(ids);
  ASSERT_EQ(scores.size(), ids.size());
  ASSERT_EQ(served.size(), ids.size());
  EXPECT_EQ(0, std::memcmp(scores.data(), served.data(),
                           sizeof(float) * ids.size()));
  for (size_t i = 0; i < ids.size(); ++i) {
    const std::vector<float> alone = detector.Score(urg, {ids[i]});
    ASSERT_EQ(alone.size(), 1u);
    EXPECT_EQ(0, std::memcmp(&alone[0], &scores[i], sizeof(float)))
        << "id " << ids[i];
  }
}

// Scores do not depend on the training plan's batching. With no training
// epoch, two detectors that differ only in their plan hold the same
// parameters, so their scores match byte for byte, GSCM variants included.
TEST(ParityTest, SampledAndWholeCityPlansScoreTheSame) {
  auto city = TinyCity();
  const UrbanRegionGraph urg = Sharded(city, 2);
  const std::vector<int> labeled = urg.LabeledIds();
  const std::vector<int> labels = LabelsOf(urg, labeled);
  std::vector<int> all(static_cast<size_t>(urg.num_regions()));
  std::iota(all.begin(), all.end(), 0);
  core::CmsfConfig cfg;
  cfg.slave_epochs = 0;
  cfg.num_clusters = 10;
  for (const char* name :
       {"CMSF", "CMSF-M", "CMSF-G", "CMSF-H", "GCN", "GAT"}) {
    baselines::TrainOptions options;
    options.epochs = 0;
    options.fanout = 4;
    auto whole_city = baselines::MakeDetector(name, options, cfg);
    options.batch_size = 64;
    auto sampled = baselines::MakeDetector(name, options, cfg);
    whole_city->Train(urg, labeled, labels);
    sampled->Train(urg, labeled, labels);
    const std::vector<float> want = whole_city->Score(urg, all);
    const std::vector<float> got = sampled->Score(urg, all);
    ASSERT_EQ(got.size(), all.size()) << name;
    ASSERT_EQ(want.size(), all.size()) << name;
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                             sizeof(float) * all.size()))
        << name;
  }
}

// The freeze sweep before the whole-city pass, kept as the test's
// reference: 64-seed, fanout-0, 2-hop SampleKHop chunks through
// CmsfModel::Forward, keeping each chunk's seed rows of the assignment.
core::CmsfModel::FrozenAssignment ChunkedFreezeSweep(
    const core::CmsfModel& model, const UrbanRegionGraph& urg) {
  ag::NoGradScope no_grad;
  const int n = urg.num_regions();
  const int k = model.config().num_clusters;
  core::CmsfModel::FrozenAssignment ref;
  ref.soft = Tensor(n, k);
  ref.hard.assign(static_cast<size_t>(n), -1);
  MinibatchConfig cfg;
  cfg.fanout = 0;
  cfg.hops = 2;
  const NeighborView view(urg);
  for (int begin = 0; begin < n; begin += 64) {
    std::vector<int> chunk(static_cast<size_t>(std::min(n, begin + 64) -
                                               begin));
    std::iota(chunk.begin(), chunk.end(), begin);
    const SampledSubgraph sg = SampleKHop(view, chunk, cfg);
    const SubgraphFeatures features = GatherSubgraphFeatures(urg, sg);
    core::BatchInputs inputs;
    inputs.ctx = ContextFromSubgraph(sg);
    inputs.poi = features.poi;
    inputs.image = features.image;
    inputs.nodes = sg.nodes;
    const auto fwd = model.Forward(inputs, nullptr);
    for (size_t i = 0; i < chunk.size(); ++i) {
      std::memcpy(ref.soft.row(chunk[i]),
                  fwd.assignment->value.row(static_cast<int>(i)),
                  sizeof(float) * static_cast<size_t>(k));
      ref.hard[chunk[i]] = fwd.hard_assignment[i];
    }
  }
  return ref;
}

// TrainMaster freezes GSCM's assignment alone over the whole-city pass; the
// soft and hard tensors are the chunked sweep's bytes on any shard count.
TEST(FreezeTest, FrozenAssignmentEqualsChunkedSweep) {
  auto city = TinyCity();
  core::CmsfConfig cfg;
  cfg.master_epochs = 2;
  cfg.batch_size = 64;
  cfg.fanout = 4;
  cfg.num_clusters = 10;
  for (const int shards : {1, 2, 4}) {
    const UrbanRegionGraph urg = Sharded(city, shards);
    const std::vector<int> labeled = urg.LabeledIds();
    Rng rng(cfg.seed);
    core::CmsfModel model(cfg, urg.PoiDim(), urg.ImageDim(), &rng);
    core::BatchPlan plan(cfg.batch_size, cfg.fanout, cfg.maga_layers);
    plan.SetTrainSet(labeled, LabelsOf(urg, labeled), cfg.pos_weight);
    const core::MasterTrainResult result =
        core::TrainMaster(&model, urg, &plan);
    const core::CmsfModel::FrozenAssignment ref =
        ChunkedFreezeSweep(model, urg);
    EXPECT_TRUE(SameBytes(result.frozen.soft, ref.soft)) << shards;
    EXPECT_EQ(result.frozen.hard, ref.hard) << shards;
  }
}

// A checkpoint of a model trained on a sharded URG: save -> load -> save is
// byte-identical, with a non-empty quality baseline, and the file equals
// the one saved against the one-shard URG of the same city.
TEST(CmsfMinibatchTest, SaveModelRoundTripsOnShardedUrg) {
  auto city = TinyCity();
  const UrbanRegionGraph urg = Sharded(city, 2);
  const UrbanRegionGraph one_shard = OneShard(city);
  core::CmsfConfig cfg;
  cfg.master_epochs = 1;
  cfg.slave_epochs = 1;
  cfg.batch_size = 64;
  cfg.fanout = 4;
  cfg.num_clusters = 10;
  const std::vector<int> labeled = urg.LabeledIds();
  const std::vector<int> labels = LabelsOf(urg, labeled);
  core::CmsfDetector detector(cfg);
  detector.Train(urg, labeled, labels);

  const std::string saved = ::testing::TempDir() + "/sharded_saved.uvck";
  const std::string resaved = ::testing::TempDir() + "/sharded_resaved.uvck";
  const std::string reference = ::testing::TempDir() + "/one_shard.uvck";
  ASSERT_TRUE(detector.SaveModel(urg, saved).ok());
  EXPECT_FALSE(detector.baseline(urg).empty());
  core::CmsfDetector reloaded(cfg);
  ASSERT_TRUE(reloaded.LoadModel(urg, saved).ok());
  EXPECT_FALSE(reloaded.baseline(urg).empty());
  ASSERT_TRUE(reloaded.SaveModel(urg, resaved).ok());

  core::CmsfDetector trained_one_shard(cfg);
  trained_one_shard.Train(one_shard, labeled, labels);
  ASSERT_TRUE(trained_one_shard.SaveModel(one_shard, reference).ok());

  auto bytes = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  const std::string first = bytes(saved);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(bytes(resaved), first);
  EXPECT_EQ(bytes(reference), first);
}

// Engines read the whole city through the shard-agnostic whole-city batch:
// built on a 2-shard URG they return the bytes they return on the one-shard
// URG of the same city.
TEST(CmsfMinibatchTest, EnginesOnShardedUrgMatchOneShardUrg) {
  auto city = TinyCity();
  const UrbanRegionGraph urg = Sharded(city, 2);
  const UrbanRegionGraph one_shard = OneShard(city);
  baselines::TrainOptions options;
  options.epochs = 1;
  options.batch_size = 64;
  options.fanout = 4;
  core::CmsfConfig cfg;
  cfg.slave_epochs = 1;
  cfg.num_clusters = 10;
  const std::vector<int> labeled = urg.LabeledIds();
  std::vector<int> all(static_cast<size_t>(urg.num_regions()));
  std::iota(all.begin(), all.end(), 0);
  for (const char* name : {"CMSF", "GCN"}) {
    auto detector = baselines::MakeDetector(name, options, cfg);
    detector->Train(urg, labeled, LabelsOf(urg, labeled));
    const std::vector<float> sharded_scores =
        baselines::MakeEngine(*detector, urg)->Score(all);
    const std::vector<float> one_shard_scores =
        baselines::MakeEngine(*detector, one_shard)->Score(all);
    ASSERT_EQ(sharded_scores.size(), all.size()) << name;
    EXPECT_EQ(0, std::memcmp(sharded_scores.data(), one_shard_scores.data(),
                             sizeof(float) * all.size()))
        << name;
  }
}

// The baselines that read the whole city outside a BatchPlan — MLP through
// the feature gathers, MMRE and ImGAGN through the whole-city batch — score
// a 2-shard URG exactly as the one-shard URG.
TEST(ShardedUrgTest, WholeCityBaselinesScoreTheSameOnShardedUrg) {
  auto city = TinyCity();
  const UrbanRegionGraph urg = Sharded(city, 2);
  const UrbanRegionGraph one_shard = OneShard(city);
  baselines::TrainOptions options;
  options.epochs = 4;
  const std::vector<int> labeled = urg.LabeledIds();
  const std::vector<int> labels = LabelsOf(urg, labeled);
  std::vector<int> all(static_cast<size_t>(urg.num_regions()));
  std::iota(all.begin(), all.end(), 0);
  for (const char* name : {"MLP", "MMRE", "ImGAGN"}) {
    auto on_sharded = baselines::MakeDetector(name, options, {});
    on_sharded->Train(urg, labeled, labels);
    auto on_one_shard = baselines::MakeDetector(name, options, {});
    on_one_shard->Train(one_shard, labeled, labels);
    const std::vector<float> got = on_sharded->Score(urg, all);
    const std::vector<float> want = on_one_shard->Score(one_shard, all);
    ASSERT_EQ(got.size(), all.size()) << name;
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                             sizeof(float) * all.size()))
        << name;
  }
}

}  // namespace
}  // namespace uv::urg
