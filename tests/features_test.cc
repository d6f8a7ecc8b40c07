#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "autograd/ops.h"
#include "features/image_encoder.h"
#include "tensor/tensor_ops.h"
#include "features/poi_features.h"
#include "synth/city.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace uv::features {
namespace {

synth::City MakeTestCity() {
  return synth::GenerateCity(uv::testing::TinyCityConfig());
}

// Hand-built city with full control over POI placement.
synth::City HandCity(int size = 8) {
  synth::City city;
  city.config = uv::testing::TinyCityConfig();
  city.config.height = city.config.width = size;
  city.config.generate_images = false;
  city.grid = {size, size, 128.0};
  const int n = city.grid.num_regions();
  city.archetypes.assign(n, synth::Archetype::kSuburbResidential);
  city.district.assign(n, 0);
  city.uv_overlap.assign(n, 0.0f);
  city.is_uv.assign(n, 0);
  city.labels.assign(n, -1);
  city.pois_by_region.assign(n, {});
  return city;
}

void AddPoi(synth::City* city, int row, int col, synth::PoiCategory cat,
            synth::RadiusType rt = synth::RadiusType::kNone) {
  synth::Poi poi;
  poi.category = cat;
  poi.radius_type = rt;
  poi.facility_type = rt != synth::RadiusType::kNone
                          ? synth::FacilityOf(rt)
                          : synth::FacilityOfCategory(cat);
  poi.x = (col + 0.5) * 128.0;
  poi.y = (row + 0.5) * 128.0;
  const int id = city->grid.RegionId(row, col);
  city->pois_by_region[id].push_back(static_cast<int>(city->pois.size()));
  city->pois.push_back(poi);
}

TEST(PoiFeaturesTest, DimensionIs64) {
  synth::City city = MakeTestCity();
  Tensor f = BuildPoiFeatures(city);
  EXPECT_EQ(f.rows(), city.num_regions());
  EXPECT_EQ(f.cols(), kPoiFeatureDim);
  EXPECT_EQ(kPoiFeatureDim, 64);
  EXPECT_FALSE(f.HasNonFinite());
}

TEST(PoiFeaturesTest, CategoryDistributionSumsToOne) {
  synth::City city = MakeTestCity();
  Tensor f = BuildPoiFeatures(city);
  for (int r = 0; r < f.rows(); ++r) {
    if (city.pois_by_region[r].empty()) continue;
    double own = 0.0, win = 0.0;
    for (int c = 0; c < 23; ++c) own += f.at(r, c);
    for (int c = 24; c < 47; ++c) win += f.at(r, c);
    EXPECT_NEAR(own, 1.0, 1e-4) << "region " << r;
    EXPECT_NEAR(win, 1.0, 1e-4) << "region " << r;
  }
}

TEST(PoiFeaturesTest, EmptyRegionHasZeroDistribution) {
  synth::City city = HandCity();
  Tensor f = BuildPoiFeatures(city);
  for (int c = 0; c < 24; ++c) EXPECT_FLOAT_EQ(f.at(0, c), 0.0f);
}

TEST(PoiFeaturesTest, CategoryHistogramCountsCorrectly) {
  synth::City city = HandCity();
  AddPoi(&city, 2, 2, synth::PoiCategory::kFoodService);
  AddPoi(&city, 2, 2, synth::PoiCategory::kFoodService);
  AddPoi(&city, 2, 2, synth::PoiCategory::kHotel);
  Tensor f = BuildPoiFeatures(city);
  const int id = city.grid.RegionId(2, 2);
  EXPECT_NEAR(f.at(id, 0), 2.0 / 3.0, 1e-5);  // FoodService ratio.
  EXPECT_NEAR(f.at(id, 1), 1.0 / 3.0, 1e-5);  // Hotel ratio.
}

TEST(PoiFeaturesTest, WindowDistributionIncludesNeighbors) {
  synth::City city = HandCity();
  AddPoi(&city, 3, 3, synth::PoiCategory::kFoodService);
  AddPoi(&city, 3, 4, synth::PoiCategory::kHotel);  // Neighbour cell.
  Tensor f = BuildPoiFeatures(city);
  const int id = city.grid.RegionId(3, 3);
  // Own distribution sees only FoodService; window sees both.
  EXPECT_NEAR(f.at(id, 0), 1.0, 1e-5);
  EXPECT_NEAR(f.at(id, 24 + 0), 0.5, 1e-5);
  EXPECT_NEAR(f.at(id, 24 + 1), 0.5, 1e-5);
}

TEST(PoiFeaturesTest, RadiusBucketsQuantized) {
  synth::City city = MakeTestCity();
  Tensor f = BuildPoiFeatures(city);
  for (int r = 0; r < f.rows(); ++r) {
    for (int c = 48; c < 63; ++c) {
      const float v = f.at(r, c);
      const bool valid = v == 0.0f || std::fabs(v - 1.0f / 3) < 1e-5 ||
                         std::fabs(v - 2.0f / 3) < 1e-5 || v == 1.0f;
      ASSERT_TRUE(valid) << "region " << r << " col " << c << " = " << v;
    }
  }
}

TEST(PoiFeaturesTest, RadiusBucketBoundaries) {
  // A hospital 4 cells away (~512m) falls in the 0.5-1.5km bucket; one in
  // the same cell falls in the <0.5km bucket.
  synth::City city = HandCity();
  AddPoi(&city, 0, 0, synth::PoiCategory::kMedicine,
         synth::RadiusType::kHospital);
  Tensor f = BuildPoiFeatures(city);
  const int hosp_col = 48 + static_cast<int>(synth::RadiusType::kHospital);
  EXPECT_FLOAT_EQ(f.at(city.grid.RegionId(0, 0), hosp_col), 0.0f);
  EXPECT_NEAR(f.at(city.grid.RegionId(0, 4), hosp_col), 1.0f / 3, 1e-5);
  EXPECT_NEAR(f.at(city.grid.RegionId(7, 7), hosp_col), 2.0f / 3, 1e-5);
}

TEST(PoiFeaturesTest, NoAnchorMeansFarthestBucket) {
  synth::City city = HandCity();
  Tensor f = BuildPoiFeatures(city);
  // No hospitals anywhere: all regions in the >3km bucket.
  const int hosp_col = 48 + static_cast<int>(synth::RadiusType::kHospital);
  for (int r = 0; r < f.rows(); ++r) EXPECT_FLOAT_EQ(f.at(r, hosp_col), 1.0f);
}

TEST(PoiFeaturesTest, FacilityIndexIsBinary) {
  synth::City city = MakeTestCity();
  Tensor f = BuildPoiFeatures(city);
  for (int r = 0; r < f.rows(); ++r) {
    ASSERT_TRUE(f.at(r, 63) == 0.0f || f.at(r, 63) == 1.0f);
  }
}

TEST(PoiFeaturesTest, FacilityIndexRequiresAllNineTypes) {
  synth::City city = HandCity();
  // Plant 8 of the 9 facility types at cell (4,4) -> index stays 0.
  AddPoi(&city, 4, 4, synth::PoiCategory::kMedicine, synth::RadiusType::kHospital);
  AddPoi(&city, 4, 4, synth::PoiCategory::kShoppingPlace, synth::RadiusType::kShop);
  AddPoi(&city, 4, 4, synth::PoiCategory::kSportsFitness);
  AddPoi(&city, 4, 4, synth::PoiCategory::kEducation, synth::RadiusType::kSchool);
  AddPoi(&city, 4, 4, synth::PoiCategory::kFoodService);
  AddPoi(&city, 4, 4, synth::PoiCategory::kFinancialService);
  AddPoi(&city, 4, 4, synth::PoiCategory::kCulturalMedia);
  AddPoi(&city, 4, 4, synth::PoiCategory::kGovernmentApparatus,
         synth::RadiusType::kPoliceStation);
  Tensor f8 = BuildPoiFeatures(city);
  EXPECT_FLOAT_EQ(f8.at(city.grid.RegionId(4, 4), 63), 0.0f);
  // Add the 9th (transportation) -> index becomes 1 nearby.
  AddPoi(&city, 4, 4, synth::PoiCategory::kTransportationFacility,
         synth::RadiusType::kBusStop);
  Tensor f9 = BuildPoiFeatures(city);
  EXPECT_FLOAT_EQ(f9.at(city.grid.RegionId(4, 4), 63), 1.0f);
  // A cell 12+ cells away (>1km in BFS metric) stays 0.
  EXPECT_FLOAT_EQ(f9.at(city.grid.RegionId(0, 0), 63), 0.0f);
}

TEST(NearestAnchorDistanceTest, BfsMetric) {
  synth::City city = HandCity();
  AddPoi(&city, 0, 0, synth::PoiCategory::kMedicine,
         synth::RadiusType::kHospital);
  auto dist = NearestAnchorDistance(city, [](const synth::Poi& p) {
    return p.radius_type == synth::RadiusType::kHospital;
  });
  EXPECT_FLOAT_EQ(dist[city.grid.RegionId(0, 0)], 0.0f);
  EXPECT_FLOAT_EQ(dist[city.grid.RegionId(0, 3)], 3 * 128.0f);
  // Manhattan path on the 4-connected grid.
  EXPECT_FLOAT_EQ(dist[city.grid.RegionId(2, 2)], 4 * 128.0f);
}

TEST(NearestAnchorDistanceTest, NoAnchorsGivesInfinity) {
  synth::City city = HandCity();
  auto dist = NearestAnchorDistance(
      city, [](const synth::Poi&) { return false; });
  EXPECT_TRUE(std::isinf(dist[0]));
}

// ----------------------------- ConvEncoder ----------------------------------

TEST(ConvEncoderTest, OutputShape) {
  ConvEncoder::Options options;
  options.image_size = 16;
  options.out_dim = 48;
  ConvEncoder encoder(options);
  Rng rng(5);
  Tensor images(7, 3 * 16 * 16);
  images.RandomNormal(&rng, 0.3f);
  Tensor out = encoder.Encode(images);
  EXPECT_EQ(out.rows(), 7);
  EXPECT_EQ(out.cols(), 48);
  EXPECT_FALSE(out.HasNonFinite());
}

TEST(ConvEncoderTest, DeterministicAcrossInstances) {
  ConvEncoder::Options options;
  options.image_size = 16;
  options.out_dim = 32;
  ConvEncoder a(options), b(options);
  Rng rng(9);
  Tensor images(3, 3 * 16 * 16);
  images.RandomNormal(&rng, 0.3f);
  Tensor fa = a.Encode(images);
  Tensor fb = b.Encode(images);
  ASSERT_TRUE(fa.SameShape(fb));
  EXPECT_EQ(0, std::memcmp(fa.data(), fb.data(), sizeof(float) * fa.size()));
}

TEST(ConvEncoderTest, BatchBoundaryConsistent) {
  ConvEncoder::Options options;
  options.image_size = 16;
  options.out_dim = 16;
  options.batch_size = 2;  // Force multiple chunks.
  ConvEncoder chunked(options);
  options.batch_size = 64;
  ConvEncoder whole(options);
  Rng rng(9);
  Tensor images(5, 3 * 16 * 16);
  images.RandomNormal(&rng, 0.3f);
  Tensor fa = chunked.Encode(images);
  Tensor fb = whole.Encode(images);
  ASSERT_TRUE(fa.SameShape(fb));
  EXPECT_EQ(0, std::memcmp(fa.data(), fb.data(), sizeof(float) * fa.size()));
}

// The grad-free encoder is the autograd chain it replaced, op for op, over
// its own weights: [Conv2d -> Relu -> MaxPool2d] x 3, then MatMul.
TEST(ConvEncoderTest, MatchesAutogradChainBitForBit) {
  for (const int size : {16, 32}) {
    ConvEncoder::Options options;
    options.image_size = size;
    options.out_dim = 40;
    options.batch_size = 4;  // Two full chunks and a partial one.
    const ConvEncoder encoder(options);
    Rng rng(21);
    Tensor images(11, 3 * size * size);
    images.RandomNormal(&rng, 0.5f);

    ag::VarPtr x = ag::MakeConst(images);
    for (const ConvEncoder::Layer& layer : encoder.layers()) {
      const Conv2dSpec& s = layer.spec;
      x = ag::Relu(ag::Conv2d(x, ag::MakeConst(layer.w),
                              ag::MakeConst(layer.b), s));
      x = ag::MaxPool2d(x, s.out_channels, s.out_h(), s.out_w(), 2, 2);
    }
    x = ag::MatMul(x, ag::MakeConst(encoder.projection()));

    const Tensor got = encoder.Encode(images);
    ASSERT_TRUE(got.SameShape(x->value)) << "size " << size;
    EXPECT_EQ(0, std::memcmp(got.data(), x->value.data(),
                             sizeof(float) * got.size()))
        << "size " << size;
  }
}

TEST(ConvEncoderTest, DifferentImagesDifferentFeatures) {
  ConvEncoder::Options options;
  options.image_size = 16;
  options.out_dim = 32;
  ConvEncoder encoder(options);
  Tensor images(2, 3 * 16 * 16);
  for (int c = 0; c < images.cols(); ++c) images.at(1, c) = 1.0f;
  Tensor f = encoder.Encode(images);
  float diff = 0.0f;
  for (int c = 0; c < 32; ++c) diff += std::fabs(f.at(0, c) - f.at(1, c));
  EXPECT_GT(diff, 1e-3f);
}

// -------------------------- HistogramEqualize -------------------------------

TEST(HistogramEqualizeTest, OutputInUnitRange) {
  Rng rng(4);
  Tensor images(4, 3 * 64);
  for (int64_t i = 0; i < images.size(); ++i) {
    images[i] = static_cast<float>(rng.Uniform()) * 0.3f;  // Low contrast.
  }
  Tensor eq = HistogramEqualize(images, 3);
  for (int64_t i = 0; i < eq.size(); ++i) {
    ASSERT_GE(eq[i], 0.0f);
    ASSERT_LE(eq[i], 1.0f);
  }
}

TEST(HistogramEqualizeTest, StretchesLowContrast) {
  Rng rng(4);
  Tensor images(1, 3 * 256);
  for (int64_t i = 0; i < images.size(); ++i) {
    images[i] = 0.4f + 0.05f * static_cast<float>(rng.Uniform());
  }
  Tensor eq = HistogramEqualize(images, 3);
  float min_v = 1.0f, max_v = 0.0f;
  for (int64_t i = 0; i < eq.size(); ++i) {
    min_v = std::min(min_v, eq[i]);
    max_v = std::max(max_v, eq[i]);
  }
  EXPECT_GT(max_v - min_v, 0.5f);
}

TEST(HistogramEqualizeTest, PreservesOrdering) {
  Tensor images(1, 8, {0.1f, 0.2f, 0.3f, 0.4f, 0.5f, 0.6f, 0.7f, 0.8f});
  Tensor eq = HistogramEqualize(images, 1);
  for (int c = 1; c < 8; ++c) {
    EXPECT_LE(eq.at(0, c - 1), eq.at(0, c));
  }
}

}  // namespace
}  // namespace uv::features
