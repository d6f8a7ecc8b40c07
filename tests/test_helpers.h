#ifndef UV_TESTS_TEST_HELPERS_H_
#define UV_TESTS_TEST_HELPERS_H_

#include <cstring>
#include <numeric>
#include <vector>

#include "synth/city.h"
#include "tensor/tensor.h"
#include "urg/urban_region_graph.h"

namespace uv::testing {

// A deterministic miniature city config that generates in milliseconds,
// with enough labeled UVs for 3-fold CV. Shared across the test suites.
inline synth::CityConfig TinyCityConfig(uint64_t seed = 11) {
  synth::CityConfig c;
  c.name = "TestVille";
  c.seed = seed;
  c.height = 24;
  c.width = 24;
  c.num_centers = 1;
  c.num_districts = 2;
  c.industrial_patches = 1.0;
  c.green_patches = 1.0;
  c.num_uv_blobs = 8;
  c.uv_blob_min_cells = 3;
  c.uv_blob_max_cells = 8;
  // Tests want a learnable signal in few epochs: villages are clearly
  // informal in the test city.
  c.uv_informality_min = 0.85;
  c.labeled_uv_target = 24;
  c.labeled_nonuv_target = 160;
  c.image_size = 16;
  return c;
}

inline urg::UrbanRegionGraph TinyUrg(uint64_t seed = 11) {
  urg::UrgOptions options;
  options.image_feature_dim = 32;
  return urg::BuildUrg(synth::GenerateCity(TinyCityConfig(seed)), options);
}

// Every region's feature rows, in id order, through the URG's store.
inline Tensor PoiRows(const urg::UrbanRegionGraph& urg) {
  std::vector<int> ids(static_cast<size_t>(urg.num_regions()));
  std::iota(ids.begin(), ids.end(), 0);
  Tensor rows;
  urg.GatherPoiRows(ids, &rows);
  return rows;
}
inline Tensor ImageRows(const urg::UrbanRegionGraph& urg) {
  std::vector<int> ids(static_cast<size_t>(urg.num_regions()));
  std::iota(ids.begin(), ids.end(), 0);
  Tensor rows;
  urg.GatherImageRows(ids, &rows);
  return rows;
}

inline bool SameBytes(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) == 0;
}

}  // namespace uv::testing

#endif  // UV_TESTS_TEST_HELPERS_H_
