#include <gtest/gtest.h>

#include "features/poi_features.h"
#include "tensor/tensor_ops.h"
#include "synth/city.h"
#include "test_helpers.h"
#include "urg/urban_region_graph.h"

namespace uv::urg {
namespace {

synth::City MakeTestCity() {
  return synth::GenerateCity(uv::testing::TinyCityConfig());
}

UrgOptions SmallOptions() {
  UrgOptions options;
  options.image_feature_dim = 32;
  return options;
}

using uv::testing::ImageRows;
using uv::testing::PoiRows;

// BuildUrg's adjacency: the CSR of its single shard, over global ids.
const graph::CsrGraph& Adjacency(const UrbanRegionGraph& urg) {
  EXPECT_EQ(urg.sharded->shards.size(), 1u);
  EXPECT_TRUE(urg.sharded->shards[0].halo.empty());
  return urg.sharded->shards[0].local;
}

TEST(UrgTest, BasicShapes) {
  synth::City city = MakeTestCity();
  UrbanRegionGraph urg = BuildUrg(city, SmallOptions());
  EXPECT_EQ(urg.num_regions(), city.num_regions());
  ASSERT_NE(urg.features, nullptr);
  EXPECT_EQ(urg.features->num_regions(), city.num_regions());
  EXPECT_EQ(urg.PoiDim(), features::kPoiFeatureDim);
  EXPECT_EQ(urg.ImageDim(), 32);
  EXPECT_EQ(Adjacency(urg).num_nodes(), city.num_regions());
  EXPECT_EQ(urg.labels, city.labels);
  EXPECT_FALSE(PoiRows(urg).HasNonFinite());
  EXPECT_FALSE(ImageRows(urg).HasNonFinite());
}

TEST(UrgTest, SelfLoopsPresent) {
  synth::City city = MakeTestCity();
  UrbanRegionGraph urg = BuildUrg(city, SmallOptions());
  for (int i = 0; i < urg.num_regions(); i += 37) {
    EXPECT_TRUE(Adjacency(urg).HasEdge(i, i));
  }
}

TEST(UrgTest, EdgeCountsAdditive) {
  synth::City city = MakeTestCity();
  UrgOptions both = SmallOptions();
  UrgOptions spatial_only = SmallOptions();
  spatial_only.use_road_edges = false;
  UrgOptions road_only = SmallOptions();
  road_only.use_spatial_edges = false;

  UrbanRegionGraph urg_both = BuildUrg(city, both);
  UrbanRegionGraph urg_s = BuildUrg(city, spatial_only);
  UrbanRegionGraph urg_r = BuildUrg(city, road_only);

  EXPECT_GT(urg_s.num_spatial_edges, 0);
  EXPECT_EQ(urg_s.num_road_edges, 0);
  EXPECT_GT(urg_r.num_road_edges, 0);
  EXPECT_EQ(urg_r.num_spatial_edges, 0);
  // Union is at most the sum (relations can overlap) and at least the max.
  EXPECT_LE(urg_both.num_edges,
            urg_s.num_spatial_edges + urg_r.num_road_edges);
  EXPECT_GE(urg_both.num_edges,
            std::max(urg_s.num_spatial_edges, urg_r.num_road_edges));
}

TEST(UrgTest, AdjacencyIsSymmetric) {
  synth::City city = MakeTestCity();
  UrbanRegionGraph urg = BuildUrg(city, SmallOptions());
  const graph::CsrGraph& adjacency = Adjacency(urg);
  for (int a = 0; a < urg.num_regions(); a += 11) {
    for (int b : adjacency.InNeighbors(a)) {
      EXPECT_TRUE(adjacency.HasEdge(a, b)) << a << " <-> " << b;
    }
  }
}

TEST(UrgTest, RoadHopsWidenReach) {
  synth::City city = MakeTestCity();
  UrgOptions hops1 = SmallOptions();
  hops1.road_max_hops = 1;
  UrgOptions hops5 = SmallOptions();
  hops5.road_max_hops = 5;
  EXPECT_LT(BuildUrg(city, hops1).num_road_edges,
            BuildUrg(city, hops5).num_road_edges);
}

TEST(UrgTest, StandardizationCentersColumns) {
  synth::City city = MakeTestCity();
  UrbanRegionGraph urg = BuildUrg(city, SmallOptions());
  Tensor mean = ColumnMean(PoiRows(urg));
  for (int c = 0; c < mean.cols(); ++c) {
    EXPECT_NEAR(mean.at(0, c), 0.0f, 1e-3f);
  }
}

TEST(UrgTest, LabeledIdsSortedAndMatchLabels) {
  synth::City city = MakeTestCity();
  UrbanRegionGraph urg = BuildUrg(city, SmallOptions());
  auto ids = urg.LabeledIds();
  EXPECT_FALSE(ids.empty());
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  for (int id : ids) EXPECT_GE(urg.labels[id], 0);
  size_t labeled_count = 0;
  for (int l : urg.labels) labeled_count += (l >= 0);
  EXPECT_EQ(ids.size(), labeled_count);
}

// ------------------------- Feature ablations -------------------------------

TEST(UrgAblationTest, NoCateZeroesCategoryColumns) {
  synth::City city = MakeTestCity();
  UrgOptions options = SmallOptions();
  options.feature_ablation = FeatureAblation::kNoCate;
  options.standardize_features = false;
  const Tensor poi = PoiRows(BuildUrg(city, options));
  for (int r = 0; r < poi.rows(); r += 13) {
    for (int c = 0; c < 48; ++c) EXPECT_FLOAT_EQ(poi.at(r, c), 0.0f);
  }
  // Radius columns survive.
  double radius_norm = 0.0;
  for (int r = 0; r < poi.rows(); ++r) {
    for (int c = 48; c < 63; ++c) radius_norm += poi.at(r, c);
  }
  EXPECT_GT(radius_norm, 0.0);
}

TEST(UrgAblationTest, NoRadZeroesRadiusColumns) {
  synth::City city = MakeTestCity();
  UrgOptions options = SmallOptions();
  options.feature_ablation = FeatureAblation::kNoRad;
  options.standardize_features = false;
  const Tensor poi = PoiRows(BuildUrg(city, options));
  for (int r = 0; r < poi.rows(); r += 13) {
    for (int c = 48; c < 63; ++c) {
      EXPECT_FLOAT_EQ(poi.at(r, c), 0.0f);
    }
  }
}

TEST(UrgAblationTest, NoIndexZeroesIndexColumn) {
  synth::City city = MakeTestCity();
  UrgOptions options = SmallOptions();
  options.feature_ablation = FeatureAblation::kNoIndex;
  options.standardize_features = false;
  const Tensor poi = PoiRows(BuildUrg(city, options));
  for (int r = 0; r < poi.rows(); ++r) {
    EXPECT_FLOAT_EQ(poi.at(r, 63), 0.0f);
  }
}

TEST(UrgAblationTest, NoImageShrinksImageBlock) {
  synth::City city = MakeTestCity();
  UrgOptions options = SmallOptions();
  options.feature_ablation = FeatureAblation::kNoImage;
  UrbanRegionGraph urg = BuildUrg(city, options);
  // Zero placeholder block: every entry zero.
  EXPECT_DOUBLE_EQ(ImageRows(urg).Norm(), 0.0);
}

// ------------------------ Main urban area rule ------------------------------

TEST(MainUrbanAreaTest, FullFractionKeepsEverything) {
  synth::City city = MakeTestCity();
  auto bounds = MainUrbanAreaBounds(city, 1.0);
  EXPECT_EQ(bounds[0], 0);
  EXPECT_EQ(bounds[1], 0);
  EXPECT_EQ(bounds[2], city.grid.height - 1);
  EXPECT_EQ(bounds[3], city.grid.width - 1);
}

TEST(MainUrbanAreaTest, NinetyPercentCropsSparseRim) {
  synth::City city = MakeTestCity();
  auto bounds = MainUrbanAreaBounds(city, 0.9);
  // Bounds stay valid and ordered.
  EXPECT_LE(bounds[0], bounds[2]);
  EXPECT_LE(bounds[1], bounds[3]);
  EXPECT_GE(bounds[0], 0);
  EXPECT_LT(bounds[2], city.grid.height);
  // Count POIs inside the frame: must be >= 90%.
  int64_t inside = 0;
  for (const auto& poi : city.pois) {
    const int id = city.grid.RegionAt(poi.x, poi.y);
    const int r = city.grid.RowOf(id), c = city.grid.ColOf(id);
    if (r >= bounds[0] && r <= bounds[2] && c >= bounds[1] && c <= bounds[3]) {
      ++inside;
    }
  }
  EXPECT_GE(static_cast<double>(inside) / city.pois.size(), 0.9);
}

TEST(MainUrbanAreaTest, SmallFractionShrinksFrame) {
  synth::City city = MakeTestCity();
  auto b90 = MainUrbanAreaBounds(city, 0.9);
  auto b50 = MainUrbanAreaBounds(city, 0.5);
  const int area90 = (b90[2] - b90[0] + 1) * (b90[3] - b90[1] + 1);
  const int area50 = (b50[2] - b50[0] + 1) * (b50[3] - b50[1] + 1);
  EXPECT_LE(area50, area90);
}

}  // namespace
}  // namespace uv::urg
