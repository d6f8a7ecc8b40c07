#include "urg/feature_store.h"

#include <algorithm>
#include <cstring>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace uv::urg {

ResidentFeatureStore::ResidentFeatureStore(Tensor poi_features,
                                           Tensor image_features)
    : poi_(std::move(poi_features)), image_(std::move(image_features)) {
  UV_CHECK_EQ(poi_.rows(), image_.rows());
}

void ResidentFeatureStore::GatherPoi(const std::vector<int>& ids,
                                     Tensor* out) {
  GatherRowsInto(poi_, ids.data(), static_cast<int>(ids.size()), out);
}

void ResidentFeatureStore::GatherImage(const std::vector<int>& ids,
                                       Tensor* out) {
  GatherRowsInto(image_, ids.data(), static_cast<int>(ids.size()), out);
}

void RenderAndEncodeTiles(const synth::City& city,
                          const features::ConvEncoder& encoder,
                          const std::vector<int>& ids, Tensor* out) {
  const int s = city.config.image_size;
  const int count = static_cast<int>(ids.size());
  const int chunk = encoder.batch_size();
  out->ResizeUninit(count, encoder.out_dim());
  auto& tiles_rendered =
      obs::Registry::Global().GetCounter("synth.tiles_rendered");
  // A plain local, NOT thread_local: the render lambda below runs on pool
  // workers, and a lambda body never captures a thread_local — each worker
  // would resolve its own (empty) instance. The slab comes from
  // BufferPool, so a fresh tensor per call is allocation-free in steady
  // state anyway.
  Tensor tiles;
  for (int begin = 0; begin < count; begin += chunk) {
    const int rows = std::min(chunk, count - begin);
    tiles.ResizeUninit(rows, 3 * s * s);
    {
      obs::SpanGuard span("render_tiles", obs::SpanLevel::kFine, "tiles",
                          rows);
      ParallelFor(0, rows, 16, [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          city.RenderRegionTile(ids[begin + r],
                                tiles.row(static_cast<int>(r)));
        }
        tiles_rendered.Inc(static_cast<uint64_t>(r1 - r0));
      });
    }
    obs::SpanGuard span("encode_tiles", obs::SpanLevel::kFine, "tiles", rows);
    const Tensor encoded = encoder.Encode(tiles);
    std::memcpy(out->row(begin), encoded.data(),
                sizeof(float) * static_cast<size_t>(encoded.size()));
  }
}

LazyFeatureStore::LazyFeatureStore(
    std::shared_ptr<const synth::City> city, Tensor poi_features,
    const features::ConvEncoder::Options& encoder, bool standardize,
    const Options& options)
    : city_(std::move(city)),
      poi_(std::move(poi_features)),
      encoder_(encoder) {
  UV_CHECK(city_ != nullptr);
  UV_CHECK_EQ(poi_.rows(), city_->num_regions());
  UV_CHECK_EQ(encoder.image_size, city_->config.image_size);
  const int n = city_->num_regions();
  const int dim = encoder_.out_dim();

  // Column statistics from a deterministic evenly-spaced sample. With
  // stats_sample >= N this is the whole city in id order — exactly the
  // population the eager path standardizes over — so small-city lazy
  // features match eager features bit for bit.
  col_mean_ = Tensor(1, dim);
  col_std_ = Tensor(1, dim);
  col_std_.Fill(1.0f);
  if (standardize) {
    const int sample = std::min(n, std::max(1, options.stats_sample));
    std::vector<int> ids(sample);
    for (int i = 0; i < sample; ++i) {
      ids[i] = static_cast<int>(static_cast<int64_t>(i) * n / sample);
    }
    Tensor encoded;
    RenderAndEncodeTiles(*city_, encoder_, ids, &encoded);
    const Tensor mean = ColumnMean(encoded);
    const Tensor std = ColumnStd(encoded, mean);
    for (int c = 0; c < dim; ++c) {
      col_mean_.at(0, c) = mean.at(0, c);
      // Same floor as StandardizeColumnsInPlace: quiet columns divide by 1.
      col_std_.at(0, c) = std.at(0, c) > 1e-6f ? std.at(0, c) : 1.0f;
    }
  }

  const int rows = std::max(1, options.cache_rows);
  cache_ = Tensor::Uninit(rows, dim);
  region_of_slot_.assign(rows, -1);
  row_of_region_.assign(n, -1);
  requests_.assign(n, 0);
  last_request_.assign(n, 0);
}

void LazyFeatureStore::GatherPoi(const std::vector<int>& ids, Tensor* out) {
  GatherRowsInto(poi_, ids.data(), static_cast<int>(ids.size()), out);
}

void LazyFeatureStore::EncodeRegions(const std::vector<int>& ids,
                                     Tensor* out) {
  RenderAndEncodeTiles(*city_, encoder_, ids, out);
  const int dim = encoder_.out_dim();
  for (int i = 0; i < out->rows(); ++i) {
    float* row = out->row(i);
    for (int c = 0; c < dim; ++c) {
      row[c] = (row[c] - col_mean_.at(0, c)) / col_std_.at(0, c);
    }
  }
}

void LazyFeatureStore::GatherImage(const std::vector<int>& ids, Tensor* out) {
  const int dim = encoder_.out_dim();
  const int capacity = cache_.rows();
  out->ResizeUninit(static_cast<int>(ids.size()), dim);
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t gather = ++gathers_;

  // Pass 1: count one request per distinct id and list the misses; a miss
  // points at its future row of fresh_.
  missing_.clear();
  for (const int id : ids) {
    UV_CHECK_GE(id, 0);
    UV_CHECK_LT(id, num_regions());
    if (last_request_[id] == gather) continue;
    last_request_[id] = gather;
    ++requests_[id];
    if (row_of_region_[id] < 0) {
      row_of_region_[id] = capacity + static_cast<int>(missing_.size());
      missing_.push_back(id);
    }
  }
  if (!missing_.empty()) EncodeRegions(missing_, &fresh_);

  // Pass 2: copy rows out, from the cache or from fresh_.
  for (size_t i = 0; i < ids.size(); ++i) {
    const int row = row_of_region_[ids[i]];
    const float* src =
        row < capacity ? cache_.row(row) : fresh_.row(row - capacity);
    std::memcpy(out->row(static_cast<int>(i)), src,
                sizeof(float) * static_cast<size_t>(dim));
  }
  cache_hits_ += ids.size() - missing_.size();
  cache_misses_ += missing_.size();
  if (!missing_.empty()) Admit();
}

void LazyFeatureStore::Admit() {
  const int capacity = cache_.rows();
  ranked_.clear();
  for (const int region : region_of_slot_) {
    if (region >= 0) ranked_.push_back(region);
  }
  ranked_.insert(ranked_.end(), missing_.begin(), missing_.end());
  if (ranked_.size() > static_cast<size_t>(capacity)) {
    // A strict total order, so the kept set is unique.
    const auto better = [&](int a, int b) {
      if (requests_[a] != requests_[b]) return requests_[a] > requests_[b];
      const bool resident_a = row_of_region_[a] < capacity;
      const bool resident_b = row_of_region_[b] < capacity;
      if (resident_a != resident_b) return resident_a;
      if (last_request_[a] != last_request_[b]) {
        return last_request_[a] > last_request_[b];
      }
      return a < b;
    };
    std::nth_element(ranked_.begin(), ranked_.begin() + capacity,
                     ranked_.end(), better);
    for (size_t i = capacity; i < ranked_.size(); ++i) {
      int& row = row_of_region_[ranked_[i]];
      if (row < capacity) region_of_slot_[row] = -1;
      row = -1;
    }
    ranked_.resize(capacity);
  }
  // The kept fresh rows fill the free slots.
  int slot = 0;
  for (const int region : ranked_) {
    int& row = row_of_region_[region];
    if (row < capacity) continue;
    while (region_of_slot_[slot] >= 0) ++slot;
    std::memcpy(cache_.row(slot), fresh_.row(row - capacity),
                sizeof(float) * static_cast<size_t>(cache_.cols()));
    region_of_slot_[slot] = region;
    row = slot;
  }
}

}  // namespace uv::urg
