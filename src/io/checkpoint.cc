#include "io/checkpoint.h"

#include <cstdio>
#include <cstring>
#include <memory>

#include "io/serialize.h"
#include "urg/urban_region_graph.h"

namespace uv::io {
namespace {

constexpr char kMagic[4] = {'U', 'V', 'C', 'K'};
// Names and config blobs are small; a multi-megabyte length is a corrupt
// header, not a real checkpoint.
constexpr int32_t kMaxBlobBytes = 1 << 20;

void HashBytes(const void* data, size_t n, uint64_t* h) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= 1099511628211ull;  // FNV-1a 64-bit prime.
  }
}

// Byte offset of the current read/write position, for error messages. A
// failed fread leaves the position at the point the stream ran dry, so
// reporting ftell at detection time names where the file went bad.
std::string AtOffset(std::FILE* f, const std::string& path) {
  const long off = std::ftell(f);
  return " at byte offset " + std::to_string(off >= 0 ? off : 0) + " in " +
         path;
}

bool WriteFingerprint(std::FILE* f, const UrgFingerprint& fp) {
  return WritePod(f, fp.grid_height) && WritePod(f, fp.grid_width) &&
         WritePod(f, fp.cell_meters) && WritePod(f, fp.num_regions) &&
         WritePod(f, fp.num_spatial_edges) &&
         WritePod(f, fp.num_road_edges) && WritePod(f, fp.num_edges);
}

bool ReadFingerprint(std::FILE* f, UrgFingerprint* fp) {
  return ReadPod(f, &fp->grid_height) && ReadPod(f, &fp->grid_width) &&
         ReadPod(f, &fp->cell_meters) && ReadPod(f, &fp->num_regions) &&
         ReadPod(f, &fp->num_spatial_edges) &&
         ReadPod(f, &fp->num_road_edges) && ReadPod(f, &fp->num_edges);
}

// ---------------------------------------------------------------------------
// Quality-baseline section (v2). Serialized into a byte buffer first so the
// section carries its own length and FNV-1a hash: a flipped bit inside the
// baseline is caught at load instead of silently skewing drift detection.
// ---------------------------------------------------------------------------

template <typename T>
void AppendPod(std::vector<uint8_t>* buf, const T& value) {
  const auto* p = reinterpret_cast<const uint8_t*>(&value);
  buf->insert(buf->end(), p, p + sizeof(T));
}

template <typename T>
bool TakePod(const uint8_t** p, const uint8_t* end, T* value) {
  if (static_cast<size_t>(end - *p) < sizeof(T)) return false;
  std::memcpy(value, *p, sizeof(T));
  *p += sizeof(T);
  return true;
}

// A baseline is persisted when it carries any signal; a column-less
// baseline with only score/calibration counts still round-trips.
bool BaselinePresent(const obs::QualityBaseline& b) {
  if (!b.columns.empty()) return true;
  for (const uint64_t c : b.score_counts) {
    if (c != 0) return true;
  }
  for (const uint64_t c : b.calib_count) {
    if (c != 0) return true;
  }
  return false;
}

std::vector<uint8_t> EncodeBaseline(const obs::QualityBaseline& b) {
  std::vector<uint8_t> buf;
  AppendPod(&buf, static_cast<int32_t>(b.columns.size()));
  // Bin-geometry echo: a loader built with different sketch constants must
  // refuse rather than misinterpret the counts.
  AppendPod(&buf, static_cast<int32_t>(obs::QualityBaseline::kFeatureBins));
  AppendPod(&buf, static_cast<int32_t>(obs::QualityBaseline::kScoreBins));
  AppendPod(&buf, static_cast<int32_t>(obs::QualityBaseline::kCalibBins));
  for (const obs::QualityBaseline::Column& col : b.columns) {
    for (const float e : col.edges) AppendPod(&buf, e);
    for (const uint64_t c : col.counts) AppendPod(&buf, c);
    AppendPod(&buf, col.mean);
    AppendPod(&buf, col.stdev);
  }
  for (const uint64_t c : b.score_counts) AppendPod(&buf, c);
  for (const uint64_t c : b.calib_count) AppendPod(&buf, c);
  for (const double s : b.calib_score_sum) AppendPod(&buf, s);
  for (const uint64_t c : b.calib_pos) AppendPod(&buf, c);
  return buf;
}

Status DecodeBaseline(const std::vector<uint8_t>& buf,
                      const std::string& path,
                      obs::QualityBaseline* out) {
  const uint8_t* p = buf.data();
  const uint8_t* end = buf.data() + buf.size();
  const auto truncated = [&path] {
    return Status::IoError("truncated quality baseline section in " + path);
  };
  int32_t columns = 0, feature_bins = 0, score_bins = 0, calib_bins = 0;
  if (!TakePod(&p, end, &columns) || !TakePod(&p, end, &feature_bins) ||
      !TakePod(&p, end, &score_bins) || !TakePod(&p, end, &calib_bins)) {
    return truncated();
  }
  if (feature_bins != obs::QualityBaseline::kFeatureBins ||
      score_bins != obs::QualityBaseline::kScoreBins ||
      calib_bins != obs::QualityBaseline::kCalibBins) {
    return Status::InvalidArgument(
        "quality baseline bin geometry mismatch in " + path + ": file has " +
        std::to_string(feature_bins) + "/" + std::to_string(score_bins) +
        "/" + std::to_string(calib_bins) +
        " feature/score/calibration bins, this build expects " +
        std::to_string(obs::QualityBaseline::kFeatureBins) + "/" +
        std::to_string(obs::QualityBaseline::kScoreBins) + "/" +
        std::to_string(obs::QualityBaseline::kCalibBins));
  }
  if (columns < 0 || columns > kMaxBlobBytes) {
    return Status::IoError("bad quality baseline column count in " + path);
  }
  out->columns.resize(static_cast<size_t>(columns));
  for (obs::QualityBaseline::Column& col : out->columns) {
    for (float& e : col.edges) {
      if (!TakePod(&p, end, &e)) return truncated();
    }
    for (uint64_t& c : col.counts) {
      if (!TakePod(&p, end, &c)) return truncated();
    }
    if (!TakePod(&p, end, &col.mean) || !TakePod(&p, end, &col.stdev)) {
      return truncated();
    }
  }
  for (uint64_t& c : out->score_counts) {
    if (!TakePod(&p, end, &c)) return truncated();
  }
  for (uint64_t& c : out->calib_count) {
    if (!TakePod(&p, end, &c)) return truncated();
  }
  for (double& s : out->calib_score_sum) {
    if (!TakePod(&p, end, &s)) return truncated();
  }
  for (uint64_t& c : out->calib_pos) {
    if (!TakePod(&p, end, &c)) return truncated();
  }
  if (p != end) {
    return Status::IoError("trailing bytes in quality baseline section in " +
                           path);
  }
  return Status::Ok();
}

uint64_t HashBlob(const std::vector<uint8_t>& buf) {
  uint64_t h = 14695981039346656037ull;  // FNV-1a 64-bit offset basis.
  HashBytes(buf.data(), buf.size(), &h);
  return h;
}

}  // namespace

UrgFingerprint UrgFingerprint::FromUrg(const urg::UrbanRegionGraph& urg) {
  UrgFingerprint fp;
  fp.grid_height = urg.grid.height;
  fp.grid_width = urg.grid.width;
  fp.cell_meters = urg.grid.cell_meters;
  fp.num_regions = urg.num_regions();
  fp.num_spatial_edges = urg.num_spatial_edges;
  fp.num_road_edges = urg.num_road_edges;
  fp.num_edges = urg.num_edges;
  return fp;
}

uint64_t UrgFingerprint::Hash() const {
  uint64_t h = 14695981039346656037ull;  // FNV-1a 64-bit offset basis.
  HashBytes(&grid_height, sizeof(grid_height), &h);
  HashBytes(&grid_width, sizeof(grid_width), &h);
  HashBytes(&cell_meters, sizeof(cell_meters), &h);
  HashBytes(&num_regions, sizeof(num_regions), &h);
  HashBytes(&num_spatial_edges, sizeof(num_spatial_edges), &h);
  HashBytes(&num_road_edges, sizeof(num_road_edges), &h);
  HashBytes(&num_edges, sizeof(num_edges), &h);
  return h;
}

bool UrgFingerprint::Matches(const UrgFingerprint& other) const {
  return grid_height == other.grid_height &&
         grid_width == other.grid_width &&
         cell_meters == other.cell_meters &&
         num_regions == other.num_regions &&
         num_spatial_edges == other.num_spatial_edges &&
         num_road_edges == other.num_road_edges &&
         num_edges == other.num_edges;
}

std::string UrgFingerprint::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%dx%d@%.1fm, %lld regions, %lld/%lld/%lld edges",
                grid_height, grid_width, cell_meters,
                static_cast<long long>(num_regions),
                static_cast<long long>(num_spatial_edges),
                static_cast<long long>(num_road_edges),
                static_cast<long long>(num_edges));
  return buf;
}

Status SaveCheckpoint(const std::string& path,
                      const Checkpoint& checkpoint) {
  // The writer only knows how to produce the current schema; refusing here
  // keeps a stale in-memory version field from minting files no loader
  // accepts.
  if (checkpoint.version != kCheckpointVersion) {
    return Status::InvalidArgument(
        "unsupported checkpoint version " +
        std::to_string(checkpoint.version));
  }
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return Status::IoError("cannot open for write: " + path);
  const auto io_error = [&path] {
    return Status::IoError("write failed: " + path);
  };
  if (std::fwrite(kMagic, 1, 4, f.get()) != 4) return io_error();
  if (!WritePod(f.get(), checkpoint.version)) return io_error();
  const int32_t name_len = static_cast<int32_t>(checkpoint.model_name.size());
  if (!WritePod(f.get(), name_len)) return io_error();
  if (name_len > 0 &&
      std::fwrite(checkpoint.model_name.data(), 1, name_len, f.get()) !=
          static_cast<size_t>(name_len)) {
    return io_error();
  }
  const int32_t config_len = static_cast<int32_t>(checkpoint.config.size());
  if (!WritePod(f.get(), config_len)) return io_error();
  if (config_len > 0 &&
      std::fwrite(checkpoint.config.data(), 1, config_len, f.get()) !=
          static_cast<size_t>(config_len)) {
    return io_error();
  }
  if (!WriteFingerprint(f.get(), checkpoint.fingerprint)) return io_error();
  if (!WritePod(f.get(), checkpoint.fingerprint.Hash())) return io_error();
  const uint8_t has_baseline = BaselinePresent(checkpoint.baseline) ? 1 : 0;
  if (!WritePod(f.get(), has_baseline)) return io_error();
  if (has_baseline != 0) {
    const std::vector<uint8_t> blob = EncodeBaseline(checkpoint.baseline);
    const int32_t blob_len = static_cast<int32_t>(blob.size());
    if (!WritePod(f.get(), blob_len)) return io_error();
    if (std::fwrite(blob.data(), 1, blob.size(), f.get()) != blob.size()) {
      return io_error();
    }
    if (!WritePod(f.get(), HashBlob(blob))) return io_error();
  }
  return WriteTensorList(f.get(), path, checkpoint.tensors);
}

StatusOr<Checkpoint> LoadCheckpoint(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::IoError("cannot open for read: " + path);
  char magic[4];
  if (std::fread(magic, 1, 4, f.get()) != 4 ||
      std::memcmp(magic, kMagic, 4) != 0) {
    return Status::IoError("not a UVCK checkpoint: " + path);
  }
  Checkpoint ck;
  if (!ReadPod(f.get(), &ck.version)) {
    return Status::IoError("truncated checkpoint header" +
                           AtOffset(f.get(), path));
  }
  if (ck.version != kCheckpointVersion) {
    // Found-vs-expected and the field's offset, plus the remedy: v1 files
    // predate the embedded quality baseline and must be re-saved, not
    // loaded blind.
    return Status::InvalidArgument(
        "checkpoint schema version " + std::to_string(ck.version) +
        " found, this loader expects version " +
        std::to_string(kCheckpointVersion) + " (at byte offset 4 in " +
        path + "); re-save the model with the current build to embed the " +
        "v2 quality baseline");
  }
  int32_t name_len = 0;
  if (!ReadPod(f.get(), &name_len) || name_len < 0 ||
      name_len > kMaxBlobBytes) {
    return Status::IoError("bad model name length" + AtOffset(f.get(), path));
  }
  ck.model_name.resize(name_len);
  if (name_len > 0 &&
      std::fread(ck.model_name.data(), 1, name_len, f.get()) !=
          static_cast<size_t>(name_len)) {
    return Status::IoError("truncated checkpoint header" +
                           AtOffset(f.get(), path));
  }
  int32_t config_len = 0;
  if (!ReadPod(f.get(), &config_len) || config_len < 0 ||
      config_len > kMaxBlobBytes) {
    return Status::IoError("bad config blob length" + AtOffset(f.get(), path));
  }
  ck.config.resize(config_len);
  if (config_len > 0 &&
      std::fread(ck.config.data(), 1, config_len, f.get()) !=
          static_cast<size_t>(config_len)) {
    return Status::IoError("truncated checkpoint header" +
                           AtOffset(f.get(), path));
  }
  uint64_t stored_hash = 0;
  if (!ReadFingerprint(f.get(), &ck.fingerprint) ||
      !ReadPod(f.get(), &stored_hash)) {
    return Status::IoError("truncated checkpoint header" +
                           AtOffset(f.get(), path));
  }
  if (stored_hash != ck.fingerprint.Hash()) {
    return Status::IoError("corrupt fingerprint" + AtOffset(f.get(), path));
  }
  uint8_t has_baseline = 0;
  if (!ReadPod(f.get(), &has_baseline)) {
    return Status::IoError("truncated checkpoint header" +
                           AtOffset(f.get(), path));
  }
  if (has_baseline > 1) {
    return Status::IoError("bad quality baseline flag" +
                           AtOffset(f.get(), path));
  }
  if (has_baseline == 1) {
    int32_t blob_len = 0;
    if (!ReadPod(f.get(), &blob_len) || blob_len < 0 ||
        blob_len > kMaxBlobBytes) {
      return Status::IoError("bad quality baseline length" +
                             AtOffset(f.get(), path));
    }
    std::vector<uint8_t> blob(static_cast<size_t>(blob_len));
    if (blob_len > 0 &&
        std::fread(blob.data(), 1, blob.size(), f.get()) != blob.size()) {
      return Status::IoError("truncated quality baseline section" +
                             AtOffset(f.get(), path));
    }
    uint64_t baseline_hash = 0;
    if (!ReadPod(f.get(), &baseline_hash)) {
      return Status::IoError("truncated quality baseline section" +
                             AtOffset(f.get(), path));
    }
    if (baseline_hash != HashBlob(blob)) {
      return Status::IoError("corrupt quality baseline section" +
                             AtOffset(f.get(), path));
    }
    Status decoded = DecodeBaseline(blob, path, &ck.baseline);
    if (!decoded.ok()) return decoded;
  }
  auto tensors = ReadTensorList(f.get(), path);
  if (!tensors.ok()) return tensors.status();
  ck.tensors = std::move(tensors.value());
  // The tensor list must end the file exactly.
  char extra;
  if (std::fread(&extra, 1, 1, f.get()) == 1) {
    return Status::IoError("trailing bytes after tensor list" +
                           AtOffset(f.get(), path));
  }
  return ck;
}

Status ValidateCheckpoint(const Checkpoint& checkpoint,
                          const std::string& model_name,
                          const UrgFingerprint& fingerprint) {
  if (checkpoint.version != kCheckpointVersion) {
    return Status::InvalidArgument(
        "unsupported checkpoint version " +
        std::to_string(checkpoint.version));
  }
  if (checkpoint.model_name != model_name) {
    return Status::InvalidArgument("checkpoint is for model '" +
                                   checkpoint.model_name +
                                   "', expected '" + model_name + "'");
  }
  if (!checkpoint.fingerprint.Matches(fingerprint)) {
    return Status::InvalidArgument(
        "checkpoint URG fingerprint mismatch: checkpoint was trained on [" +
        checkpoint.fingerprint.ToString() + "], serving graph is [" +
        fingerprint.ToString() + "]");
  }
  return Status::Ok();
}

}  // namespace uv::io
