#ifndef UV_URG_FEATURE_STORE_H_
#define UV_URG_FEATURE_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
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
//   GatherImage(ids) -> resident row? -> miss: render tiles from the city's
//   per-region RNG streams -> ConvEncoder -> standardize -> admission.
//
// Misses are rendered and encoded one encoder chunk at a time, so the tile
// transient is bounded by the chunk, not by the batch.
//
// The cache is a fixed (cache_rows x image_dim) pool-backed tensor, so the
// store's footprint is O(cache) plus a few ints per region. Admission is
// frequency-aware: the store counts, per region, the gathers that asked
// for it, and after a gather's misses are encoded it keeps the cache_rows
// most-requested regions among the resident rows and the fresh ones (ties
// keep the resident row, then the more recently requested one, then the
// lower id). A sampled epoch asks for more rows than a capped cache holds;
// counting keeps the train seeds and hub regions that every epoch asks for
// again, where recency would let each batch's one-off halo rows evict
// them. Counts never decay: every caller keeps one training set per store.
// The policy only decides which rows stay resident, never a row's bytes.
//
// Standardization statistics come from a deterministic evenly-spaced
// region sample; when the sample covers the whole city the gathered rows
// are bit-identical to the eager BuildUrg pipeline.
class LazyFeatureStore : public FeatureStore {
 public:
  struct Options {
    int cache_rows = 32768;       // Resident encoded rows (below 1: 1).
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

  // Cache observability (for tests and bench logging): a gathered row is a
  // miss when its region was neither resident nor already encoded by the
  // same call, so misses count tile encodes.
  uint64_t cache_hits() const { return cache_hits_; }
  uint64_t cache_misses() const { return cache_misses_; }

 private:
  // Renders + encodes `ids` into consecutive rows of `out`, applying the
  // precomputed column standardization.
  void EncodeRegions(const std::vector<int>& ids, Tensor* out);
  // Ranks the resident regions and missing_ (whose rows are in fresh_) and
  // keeps the cache_rows best resident.
  void Admit();

  std::shared_ptr<const synth::City> city_;
  Tensor poi_;
  features::ConvEncoder encoder_;
  Tensor col_mean_;  // 1 x image_dim.
  Tensor col_std_;   // 1 x image_dim (already floored like the eager path).

  std::mutex mu_;
  Tensor cache_;                      // cache_rows x image_dim.
  std::vector<int> region_of_slot_;   // -1 = free.
  // Per region: its cache slot, -1 when not resident, and during a gather
  // cache_rows + its row of fresh_ when that gather encoded it.
  std::vector<int> row_of_region_;
  std::vector<uint64_t> requests_;      // Gathers that asked for it.
  std::vector<uint64_t> last_request_;  // Number of the last one (0: none).
  uint64_t gathers_ = 0;
  // Scratch of one gather.
  std::vector<int> missing_;  // Misses, deduplicated, first-seen order.
  Tensor fresh_;              // Their encoded rows.
  std::vector<int> ranked_;   // Admission candidates.
  uint64_t cache_hits_ = 0;
  uint64_t cache_misses_ = 0;
};

}  // namespace uv::urg

#endif  // UV_URG_FEATURE_STORE_H_
