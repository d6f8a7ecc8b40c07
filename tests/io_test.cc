#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <unistd.h>
#include <vector>

#include "io/serialize.h"
#include "io/urg_io.h"
#include "nn/linear.h"
#include "tensor/tensor_ops.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace uv::io {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<char> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in), {});
}

void WriteBytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream(path, std::ios::binary).write(bytes.data(), bytes.size());
}

template <typename T>
void Put(std::vector<char>* bytes, size_t at, T value) {
  ASSERT_LE(at + sizeof(T), bytes->size());
  std::memcpy(bytes->data() + at, &value, sizeof(T));
}

using uv::testing::ImageRows;
using uv::testing::PoiRows;
using uv::testing::SameBytes;

// Byte positions of the UVG1 fields the malformed-file tests patch.
struct UrgLayout {
  size_t offsets;     // First adjacency offset (past its length field).
  size_t neighbors;   // The neighbor-count field.
  size_t image;       // The image tensor's row-count field.
  size_t labels;      // The label-count field.
  size_t is_uv;       // The is_uv count field.
  size_t image_row;   // Bytes per image-feature row.
};

UrgLayout LayoutOf(const urg::UrbanRegionGraph& urg) {
  const size_t n = static_cast<size_t>(urg.num_regions());
  const size_t csr_edges = static_cast<size_t>(urg.num_edges) + n;
  UrgLayout at;
  at.offsets = 4 + 4 + urg.city_name.size() + 4 + 4 + 8 + 8;
  at.neighbors = at.offsets + 4 * (n + 1);
  const size_t poi = at.neighbors + 8 + 4 * csr_edges;
  at.image = poi + 8 + 4 * n * urg.PoiDim();
  at.image_row = 4 * static_cast<size_t>(urg.ImageDim());
  at.labels = at.image + 8 + n * at.image_row;
  at.is_uv = at.labels + 8 + 4 * n;
  return at;
}

// Saves the tiny URG, applies `patch` to its bytes, and loads the result.
template <typename Patch>
Status LoadPatched(const char* name, Patch patch) {
  const urg::UrbanRegionGraph urg = uv::testing::TinyUrg();
  const std::string path = TempPath(name);
  EXPECT_TRUE(SaveUrg(path, urg).ok());
  std::vector<char> bytes = ReadBytes(path);
  patch(LayoutOf(urg), &bytes);
  WriteBytes(path, bytes);
  return LoadUrg(path).status();
}

Tensor RandomTensor(int r, int c, uint64_t seed) {
  Rng rng(seed);
  Tensor t(r, c);
  t.RandomNormal(&rng, 1.0f);
  return t;
}

TEST(SerializeTest, TensorsRoundTrip) {
  const std::string path = TempPath("tensors.bin");
  std::vector<Tensor> tensors = {RandomTensor(3, 4, 1), RandomTensor(1, 1, 2),
                                 Tensor(0, 5)};
  ASSERT_TRUE(SaveTensors(path, tensors).ok());
  auto loaded = LoadTensors(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const auto& got = loaded.value();
  ASSERT_EQ(got.size(), 3u);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].rows(), tensors[i].rows());
    EXPECT_EQ(got[i].cols(), tensors[i].cols());
    if (got[i].size() > 0) {
      EXPECT_LT(MaxAbsDiff(got[i], tensors[i]), 1e-9f);
    }
  }
}

TEST(SerializeTest, EmptyList) {
  const std::string path = TempPath("empty.bin");
  ASSERT_TRUE(SaveTensors(path, {}).ok());
  auto loaded = LoadTensors(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().empty());
}

TEST(SerializeTest, MissingFileIsIoError) {
  auto loaded = LoadTensors(TempPath("does_not_exist.bin"));
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(SerializeTest, BadMagicRejected) {
  const std::string path = TempPath("bad_magic.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fwrite("JUNKJUNK", 1, 8, f);
  std::fclose(f);
  auto loaded = LoadTensors(path);
  EXPECT_FALSE(loaded.ok());
}

TEST(SerializeTest, TruncatedFileRejected) {
  const std::string path = TempPath("trunc.bin");
  ASSERT_TRUE(SaveTensors(path, {RandomTensor(10, 10, 3)}).ok());
  // Truncate the payload.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  auto loaded = LoadTensors(path);
  EXPECT_FALSE(loaded.ok());
}

TEST(SerializeTest, ParamsRoundTrip) {
  Rng rng(5);
  nn::Linear layer(4, 3, &rng);
  const std::string path = TempPath("params.bin");
  ASSERT_TRUE(SaveParams(path, layer.Params()).ok());

  Rng rng2(99);
  nn::Linear other(4, 3, &rng2);
  ASSERT_TRUE(LoadParams(path, other.Params()).ok());
  EXPECT_LT(MaxAbsDiff(layer.w()->value, other.w()->value), 1e-9f);
  EXPECT_LT(MaxAbsDiff(layer.b()->value, other.b()->value), 1e-9f);
}

TEST(SerializeTest, ParamCountMismatchRejected) {
  Rng rng(6);
  nn::Linear layer(4, 3, &rng);
  const std::string path = TempPath("mismatch.bin");
  ASSERT_TRUE(SaveParams(path, layer.Params()).ok());
  nn::Mlp mlp(4, 3, 1, &rng);
  Status status = LoadParams(path, mlp.Params());
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(SerializeTest, ParamShapeMismatchRejected) {
  Rng rng(7);
  nn::Linear a(4, 3, &rng);
  nn::Linear b(3, 4, &rng);
  const std::string path = TempPath("shape_mismatch.bin");
  ASSERT_TRUE(SaveParams(path, a.Params()).ok());
  Status status = LoadParams(path, b.Params());
  EXPECT_FALSE(status.ok());
}

TEST(UrgIoTest, RoundTripPreservesEverything) {
  auto urg = uv::testing::TinyUrg();
  const std::string path = TempPath("urg.bin");
  ASSERT_TRUE(SaveUrg(path, urg).ok());
  auto loaded_or = LoadUrg(path);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  const auto& loaded = loaded_or.value();

  EXPECT_EQ(loaded.city_name, urg.city_name);
  EXPECT_EQ(loaded.grid.height, urg.grid.height);
  EXPECT_EQ(loaded.grid.width, urg.grid.width);
  EXPECT_DOUBLE_EQ(loaded.grid.cell_meters, urg.grid.cell_meters);
  EXPECT_EQ(loaded.labels, urg.labels);
  EXPECT_EQ(loaded.is_uv, urg.is_uv);
  EXPECT_EQ(loaded.num_edges, urg.num_edges);
  EXPECT_EQ(loaded.num_spatial_edges, urg.num_spatial_edges);
  EXPECT_EQ(loaded.num_road_edges, urg.num_road_edges);
  EXPECT_TRUE(SameBytes(PoiRows(loaded), PoiRows(urg)));
  EXPECT_TRUE(SameBytes(ImageRows(loaded), ImageRows(urg)));
  // ShardedUrg::FromCsr rebuilds the one shard BuildUrg built.
  const urg::ShardedUrg& got = *loaded.sharded;
  const urg::ShardedUrg& want = *urg.sharded;
  EXPECT_EQ(got.spec.num_shards(), want.spec.num_shards());
  EXPECT_EQ(got.spec.tile_h, want.spec.tile_h);
  EXPECT_EQ(got.spec.tile_w, want.spec.tile_w);
  ASSERT_EQ(got.shards.size(), 1u);
  EXPECT_EQ(got.shards[0].bounds, want.shards[0].bounds);
  EXPECT_EQ(got.shards[0].num_owned, want.shards[0].num_owned);
  EXPECT_TRUE(got.shards[0].halo.empty());
  EXPECT_EQ(*got.shards[0].local.offsets(), *want.shards[0].local.offsets());
  EXPECT_EQ(*got.shards[0].local.neighbors(),
            *want.shards[0].local.neighbors());
  EXPECT_EQ(got.global_degree, want.global_degree);
  // Raw tiles preserved.
  ASSERT_NE(loaded.images, nullptr);
  EXPECT_LT(MaxAbsDiff(*loaded.images, *urg.images), 1e-9f);
  EXPECT_EQ(loaded.image_size, urg.image_size);
  // Saving the loaded URG writes the same bytes.
  const std::string again = TempPath("urg_again.bin");
  ASSERT_TRUE(SaveUrg(again, loaded).ok());
  EXPECT_EQ(ReadBytes(again), ReadBytes(path));
}

// The file holds the whole-city CSR and feature rows, so a sharded URG
// with lazily encoded images saves the same bytes as the one-shard URG.
TEST(UrgIoTest, ShardedUrgSavesTheSameBytes) {
  auto city = std::make_shared<const synth::City>(
      synth::GenerateCity(uv::testing::TinyCityConfig()));
  urg::UrgOptions options;
  options.image_feature_dim = 32;
  urg::ShardOptions shard;
  shard.num_shards = 4;
  shard.feature_store.stats_sample = 1 << 20;
  const std::string dense_path = TempPath("urg_one_shard.bin");
  const std::string sharded_path = TempPath("urg_four_shards.bin");
  ASSERT_TRUE(SaveUrg(dense_path, urg::BuildUrg(*city, options)).ok());
  const urg::UrbanRegionGraph sharded =
      urg::BuildShardedUrg(city, options, shard);
  ASSERT_EQ(sharded.sharded->shards.size(), 4u);
  ASSERT_TRUE(SaveUrg(sharded_path, sharded).ok());
  EXPECT_EQ(ReadBytes(sharded_path), ReadBytes(dense_path));
}

TEST(UrgIoTest, RoundTripWithoutImages) {
  auto urg = uv::testing::TinyUrg();
  urg.images = nullptr;
  const std::string path = TempPath("urg_noimg.bin");
  ASSERT_TRUE(SaveUrg(path, urg).ok());
  auto loaded = LoadUrg(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().images, nullptr);
}

TEST(UrgIoTest, RejectsGarbage) {
  const std::string path = TempPath("urg_garbage.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fwrite("NOPE", 1, 4, f);
  std::fclose(f);
  EXPECT_FALSE(LoadUrg(path).ok());
  EXPECT_FALSE(LoadUrg(TempPath("urg_missing.bin")).ok());
}

// Offsets that decrease (or go negative) would send the CSR rebuild past
// the neighbor array.
TEST(UrgIoTest, RejectsNonMonotoneOffsets) {
  EXPECT_EQ(LoadPatched("urg_offsets_jump.bin",
                        [](const UrgLayout& at, std::vector<char>* bytes) {
                          Put<int32_t>(bytes, at.offsets + 4, 1 << 24);
                        })
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(LoadPatched("urg_offsets_negative.bin",
                        [](const UrgLayout& at, std::vector<char>* bytes) {
                          Put<int32_t>(bytes, at.offsets + 4, -5);
                        })
                .code(),
            StatusCode::kInvalidArgument);
}

// A source id outside [0, N) would index past the region arrays; a
// segment out of ascending order breaks the CSR's sorted-segment contract.
TEST(UrgIoTest, RejectsOutOfRangeSource) {
  for (const int32_t src : {1 << 20, -1}) {
    EXPECT_EQ(LoadPatched("urg_bad_source.bin",
                          [src](const UrgLayout& at, std::vector<char>* bytes) {
                            Put<int32_t>(bytes, at.neighbors + 8, src);
                          })
                  .code(),
              StatusCode::kInvalidArgument)
        << src;
  }
  EXPECT_EQ(LoadPatched("urg_repeated_source.bin",
                        [](const UrgLayout& at, std::vector<char>* bytes) {
                          int32_t first = 0;
                          std::memcpy(&first, bytes->data() + at.neighbors + 8,
                                      sizeof(first));
                          Put<int32_t>(bytes, at.neighbors + 12, first);
                        })
                .code(),
            StatusCode::kInvalidArgument);
}

// A self-consistent file whose image block or is_uv vector is one region
// short: the feature store would abort on the row-count mismatch.
TEST(UrgIoTest, RejectsRowCountsOtherThanTheRegionCount) {
  const int n = uv::testing::TinyUrg().num_regions();
  EXPECT_EQ(LoadPatched("urg_short_image.bin",
                        [n](const UrgLayout& at, std::vector<char>* bytes) {
                          Put<int32_t>(bytes, at.image, n - 1);
                          const auto last = bytes->begin() + at.labels;
                          bytes->erase(last - at.image_row, last);
                        })
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(LoadPatched("urg_short_is_uv.bin",
                        [n](const UrgLayout& at, std::vector<char>* bytes) {
                          Put<int64_t>(bytes, at.is_uv, n - 1);
                          const auto last = bytes->begin() + at.is_uv + 8 +
                                            4 * static_cast<size_t>(n);
                          bytes->erase(last - 4, last);
                        })
                .code(),
            StatusCode::kInvalidArgument);
}

// A length field past the end of the file is refused before it sizes an
// allocation.
TEST(UrgIoTest, RejectsLengthFieldsPastTheEndOfTheFile) {
  EXPECT_EQ(LoadPatched("urg_huge_vector.bin",
                        [](const UrgLayout& at, std::vector<char>* bytes) {
                          Put<int64_t>(bytes, at.neighbors, int64_t{1} << 40);
                        })
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(LoadPatched("urg_huge_tensor.bin",
                        [](const UrgLayout& at, std::vector<char>* bytes) {
                          Put<int32_t>(bytes, at.image, 1 << 30);
                        })
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(UrgIoTest, LoadedUrgKeepsLabeledIds) {
  auto urg = uv::testing::TinyUrg();
  const std::string path = TempPath("urg_train.bin");
  ASSERT_TRUE(SaveUrg(path, urg).ok());
  auto loaded = LoadUrg(path).value();
  EXPECT_EQ(loaded.LabeledIds(), urg.LabeledIds());
}

TEST(SerializeTest, CsvOutput) {
  const std::string path = TempPath("matrix.csv");
  Tensor t(2, 2, {1.5f, 2.0f, 3.0f, 4.25f});
  ASSERT_TRUE(SaveTensorCsv(path, t).ok());
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[256];
  size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  buf[n] = '\0';
  std::fclose(f);
  EXPECT_STREQ(buf, "1.5,2\n3,4.25\n");
}

}  // namespace
}  // namespace uv::io
