#include "io/urg_io.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>

#include "io/serialize.h"
#include "urg/neighbor_sampler.h"

namespace uv::io {
namespace {

constexpr char kMagic[4] = {'U', 'V', 'G', '1'};

bool WriteIntVector(std::FILE* f, const std::vector<int>& v) {
  if (!WritePod(f, static_cast<int64_t>(v.size()))) return false;
  return v.empty() ||
         std::fwrite(v.data(), sizeof(int), v.size(), f) == v.size();
}

// Length-prefixed fields. A length past the end of the file is corrupt and
// must not size an allocation.
bool ReadIntVector(std::FILE* f, std::vector<int>* v) {
  int64_t n = 0;
  if (!ReadPod(f, &n) || n < 0 ||
      n > BytesRemaining(f) / static_cast<int64_t>(sizeof(int))) {
    return false;
  }
  v->resize(n);
  return n == 0 ||
         std::fread(v->data(), sizeof(int), v->size(), f) == v->size();
}

}  // namespace

Status SaveUrg(const std::string& path, const urg::UrbanRegionGraph& urg) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return Status::IoError("cannot open for write: " + path);
  std::FILE* fp = f.get();
  const int n = urg.num_regions();

  bool ok = std::fwrite(kMagic, 1, 4, fp) == 4;
  // City metadata.
  ok = ok && WritePod(fp, static_cast<int32_t>(urg.city_name.size()));
  ok = ok && (urg.city_name.empty() ||
              std::fwrite(urg.city_name.data(), 1, urg.city_name.size(),
                          fp) == urg.city_name.size());
  ok = ok && WritePod<int32_t>(fp, urg.grid.height) &&
       WritePod<int32_t>(fp, urg.grid.width) &&
       WritePod<double>(fp, urg.grid.cell_meters);
  // Adjacency (CSR by destination, global ids), the same for any shard
  // count.
  const urg::NeighborView view(urg);
  std::vector<int> offsets(1, 0), neighbors;
  offsets.reserve(static_cast<size_t>(n) + 1);
  for (int id = 0; id < n; ++id) {
    view.InNeighbors(id, &neighbors);
    offsets.push_back(static_cast<int>(neighbors.size()));
  }
  ok = ok && WriteIntVector(fp, offsets) && WriteIntVector(fp, neighbors);
  // Features.
  std::vector<int> ids(static_cast<size_t>(n));
  std::iota(ids.begin(), ids.end(), 0);
  Tensor poi, image;
  urg.GatherPoiRows(ids, &poi);
  urg.GatherImageRows(ids, &image);
  ok = ok && WriteTensorRecord(fp, path, poi).ok() &&
       WriteTensorRecord(fp, path, image).ok();
  // Labels + ground truth.
  ok = ok && WriteIntVector(fp, urg.labels);
  std::vector<int> is_uv(urg.is_uv.begin(), urg.is_uv.end());
  ok = ok && WriteIntVector(fp, is_uv);
  // Edge statistics.
  ok = ok && WritePod<int64_t>(fp, urg.num_spatial_edges) &&
       WritePod<int64_t>(fp, urg.num_road_edges) &&
       WritePod<int64_t>(fp, urg.num_edges);
  // Raw tiles (optional).
  ok = ok && WritePod<int32_t>(fp, urg.image_size);
  ok = ok && WritePod<int32_t>(fp, urg.images != nullptr ? 1 : 0);
  if (urg.images != nullptr) {
    ok = ok && WriteTensorRecord(fp, path, *urg.images).ok();
  }
  return ok ? Status::Ok() : Status::IoError("write failed: " + path);
}

StatusOr<urg::UrbanRegionGraph> LoadUrg(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::IoError("cannot open for read: " + path);
  std::FILE* fp = f.get();

  char magic[4];
  if (std::fread(magic, 1, 4, fp) != 4 ||
      std::memcmp(magic, kMagic, 4) != 0) {
    return Status::IoError("bad magic in " + path);
  }
  urg::UrbanRegionGraph urg;
  int32_t name_len = 0;
  if (!ReadPod(fp, &name_len) || name_len < 0 || name_len > 4096) {
    return Status::IoError("bad header in " + path);
  }
  urg.city_name.resize(name_len);
  if (name_len > 0 && std::fread(urg.city_name.data(), 1, name_len, fp) !=
                          static_cast<size_t>(name_len)) {
    return Status::IoError("truncated header in " + path);
  }
  if (!ReadPod<int32_t>(fp, &urg.grid.height) ||
      !ReadPod<int32_t>(fp, &urg.grid.width) ||
      !ReadPod<double>(fp, &urg.grid.cell_meters)) {
    return Status::IoError("truncated grid in " + path);
  }
  if (urg.grid.height <= 0 || urg.grid.width <= 0 ||
      urg.grid.num_regions() >= INT32_MAX) {
    return Status::InvalidArgument("bad grid in " + path);
  }
  const int n = urg.num_regions();

  // Every read below checks its length against the rest of the file, so a
  // failure is a malformed file, whether corrupt or truncated.
  auto offsets = std::make_shared<std::vector<int>>();
  auto neighbors = std::make_shared<std::vector<int>>();
  std::vector<int> is_uv;
  Tensor poi, image;
  int32_t has_images = 0;
  bool ok = ReadIntVector(fp, offsets.get()) &&
            ReadIntVector(fp, neighbors.get()) &&
            ReadTensorRecord(fp, path, &poi).ok() &&
            ReadTensorRecord(fp, path, &image).ok() &&
            ReadIntVector(fp, &urg.labels) && ReadIntVector(fp, &is_uv) &&
            ReadPod<int64_t>(fp, &urg.num_spatial_edges) &&
            ReadPod<int64_t>(fp, &urg.num_road_edges) &&
            ReadPod<int64_t>(fp, &urg.num_edges) &&
            ReadPod<int32_t>(fp, &urg.image_size) &&
            ReadPod(fp, &has_images);
  if (ok && has_images == 1) {
    auto images = std::make_shared<Tensor>();
    ok = ReadTensorRecord(fp, path, images.get()).ok();
    urg.images = std::move(images);
  }
  if (!ok) return Status::InvalidArgument("malformed payload in " + path);
  if (poi.rows() != n || image.rows() != n ||
      static_cast<int>(urg.labels.size()) != n ||
      static_cast<int>(is_uv.size()) != n ||
      (urg.images != nullptr && urg.images->rows() != n)) {
    return Status::InvalidArgument("inconsistent payload in " + path);
  }
  urg.is_uv.assign(is_uv.begin(), is_uv.end());

  // The adjacency as SaveUrg writes it: offsets from 0 to the neighbor
  // count, never decreasing, and each segment strictly ascending region
  // ids. Anything else is rejected before it is indexed.
  const std::vector<int>& off = *offsets;
  const std::vector<int>& src = *neighbors;
  bool csr = static_cast<int64_t>(off.size()) == int64_t{n} + 1 &&
             off[0] == 0 && off[n] == static_cast<int64_t>(src.size());
  for (int dst = 0; csr && dst < n; ++dst) csr = off[dst] <= off[dst + 1];
  for (int dst = 0; csr && dst < n; ++dst) {
    for (int e = off[dst]; csr && e < off[dst + 1]; ++e) {
      csr = src[e] >= 0 && src[e] < n &&
            (e == off[dst] || src[e - 1] < src[e]);
    }
  }
  if (!csr) {
    return Status::InvalidArgument("inconsistent adjacency in " + path);
  }
  urg.sharded = urg::ShardedUrg::FromCsr(
      urg.grid, graph::CsrGraph::FromCsrArrays(n, std::move(offsets),
                                               std::move(neighbors)));
  urg.features = std::make_shared<urg::ResidentFeatureStore>(
      std::move(poi), std::move(image));
  return urg;
}

}  // namespace uv::io
