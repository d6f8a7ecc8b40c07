#ifndef UV_URG_FEATURE_STORE_H_
#define UV_URG_FEATURE_STORE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "features/image_encoder.h"
#include "synth/city.h"
#include "tensor/tensor.h"

namespace uv::urg {

// Batch-oriented access to per-region features. Minibatch training gathers
// O(batch * fanout) feature rows per step through this interface instead of
// resident-copying every region's tensors; where the rows come from —
// resident blocks or render-on-demand — is the implementation's business.
//
// Contract: GatherPoi/GatherImage return the same bytes for a given id no
// matter the call order, batch composition, or thread count, so minibatch
// training stays deterministic under any batching schedule.
class FeatureStore {
 public:
  virtual ~FeatureStore() = default;

  virtual int num_regions() const = 0;
  virtual int poi_dim() const = 0;
  virtual int image_dim() const = 0;

  // Fills `out` (resized to ids.size() x dim) with the feature rows of
  // `ids`, in order. Implementations may cache internally; they must be
  // safe to call from several fold-worker threads at once.
  virtual void GatherPoi(const std::vector<int>& ids, Tensor* out) = 0;
  virtual void GatherImage(const std::vector<int>& ids, Tensor* out) = 0;
};

// Feature store over tensors it owns: BuildUrg's eagerly encoded features
// and io::LoadUrg's rows, and the reference the lazy store matches.
class ResidentFeatureStore : public FeatureStore {
 public:
  ResidentFeatureStore(Tensor poi_features, Tensor image_features);

  int num_regions() const override { return poi_.rows(); }
  int poi_dim() const override { return poi_.cols(); }
  int image_dim() const override { return image_.cols(); }
  void GatherPoi(const std::vector<int>& ids, Tensor* out) override;
  void GatherImage(const std::vector<int>& ids, Tensor* out) override;

 private:
  Tensor poi_;
  Tensor image_;
};

// Renders the tiles of `ids` from the city's per-region streams and
// encodes them into consecutive rows of `out` (resized to ids.size() x
// encoder.out_dim()), one encoder chunk at a time, so the tile transient is
// bounded by the chunk whatever the number of ids. The rows equal one
// whole-batch encode because the encoder is row-independent.
void RenderAndEncodeTiles(const synth::City& city,
                          const features::ConvEncoder& encoder,
                          const std::vector<int>& ids, Tensor* out);

// Render-on-demand feature store for paper-scale cities: POI features are
// resident (their radius components need whole-city BFS anyway, and 64
// floats/region is ~90 MB at 354k — cheap), while tile images — the 12x
// larger modality plus the encode cost — are materialized per batch:
//
//   GatherImage(ids) -> LRU lookup -> miss: render tiles from the city's
//   per-region RNG streams -> ConvEncoder -> standardize -> cache row.
//
// Misses are rendered and encoded one encoder chunk at a time, so the tile
// transient is bounded by the chunk, not by the batch.
//
// The cache is a fixed (cache_rows x image_dim) pool-backed tensor, so the
// store's footprint is O(cache) regardless of city size. Standardization
// statistics come from a deterministic evenly-spaced region sample; when
// the sample covers the whole city the gathered rows are bit-identical to
// the eager BuildUrg pipeline.
class LazyFeatureStore : public FeatureStore {
 public:
  struct Options {
    int cache_rows = 32768;       // LRU capacity in encoded rows.
    int stats_sample = 4096;      // Regions sampled for column stats.
  };

  // `encoder` and `standardize` are the URG builder's, the ones BuildUrg
  // encodes the eager table with.
  LazyFeatureStore(std::shared_ptr<const synth::City> city,
                   Tensor poi_features,
                   const features::ConvEncoder::Options& encoder,
                   bool standardize, const Options& options);

  int num_regions() const override { return poi_.rows(); }
  int poi_dim() const override { return poi_.cols(); }
  int image_dim() const override { return encoder_.out_dim(); }
  void GatherPoi(const std::vector<int>& ids, Tensor* out) override;
  void GatherImage(const std::vector<int>& ids, Tensor* out) override;

  // Cache observability (for tests and bench logging).
  uint64_t cache_hits() const { return cache_hits_; }
  uint64_t cache_misses() const { return cache_misses_; }

 private:
  // Renders + encodes `ids` into consecutive rows of `out`, applying the
  // precomputed column standardization.
  void EncodeRegions(const std::vector<int>& ids, Tensor* out);

  std::shared_ptr<const synth::City> city_;
  Tensor poi_;
  features::ConvEncoder encoder_;
  Tensor col_mean_;  // 1 x image_dim.
  Tensor col_std_;   // 1 x image_dim (already floored like the eager path).

  std::mutex mu_;
  Tensor cache_;                        // cache_rows x image_dim.
  std::vector<int> region_of_slot_;     // -1 = free.
  std::unordered_map<int, int> slot_of_region_;
  std::list<int> lru_;                  // Front = most recent slot.
  std::vector<std::list<int>::iterator> lru_pos_;
  uint64_t cache_hits_ = 0;
  uint64_t cache_misses_ = 0;
};

}  // namespace uv::urg

#endif  // UV_URG_FEATURE_STORE_H_
