#ifndef UV_EVAL_DETECTOR_H_
#define UV_EVAL_DETECTOR_H_

#include <string>
#include <vector>

#include "urg/urban_region_graph.h"

namespace uv::eval {

// Common interface of every urban-village detector in the comparison (the
// CMSF model and all seven baselines). A detector is constructed fresh per
// cross-validation fold, trained on the labeled training regions, and asked
// to score arbitrary region ids with P(region is UV).
class Detector {
 public:
  virtual ~Detector() = default;

  virtual std::string name() const = 0;

  // Trains on the given labeled regions of the URG. `train_ids` index into
  // the URG's regions; `train_labels` are {0,1} aligned with train_ids.
  virtual void Train(const urg::UrbanRegionGraph& urg,
                     const std::vector<int>& train_ids,
                     const std::vector<int>& train_labels) = 0;

  // Scores the given regions; higher = more likely UV. Must be callable
  // only after Train.
  virtual std::vector<float> Score(const urg::UrbanRegionGraph& urg,
                                   const std::vector<int>& eval_ids) = 0;

  // Scalar parameter count (Table III model size: 4 bytes per parameter).
  virtual int64_t NumParameters() const = 0;

  // Mean wall-clock seconds of one training epoch / of the last Score call
  // (Table III efficiency rows).
  virtual double TrainSecondsPerEpoch() const = 0;
  virtual double LastInferenceSeconds() const = 0;

  // Monotonic wall time of each training epoch, in order (the samples
  // behind TrainSecondsPerEpoch). Detectors that don't track per-epoch
  // times return empty; callers must fall back to the mean.
  virtual std::vector<double> EpochSecondsHistory() const { return {}; }

  // Timed training work that TrainSecondsPerEpoch does not average, such
  // as CMSF's freeze sweep and slave stage; 0 for one-stage detectors.
  virtual double OtherTrainSeconds() const { return 0.0; }
};

}  // namespace uv::eval

#endif  // UV_EVAL_DETECTOR_H_
