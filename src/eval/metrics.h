#ifndef UV_EVAL_METRICS_H_
#define UV_EVAL_METRICS_H_

#include <vector>

namespace uv::eval {

// Area under the ROC curve via the rank statistic (ties share ranks).
// Returns 0.5 when one class is absent.
double Auc(const std::vector<float>& scores, const std::vector<int>& labels);

// Top-p% screening metrics (paper Section VI-C): the ceil(p% * N) regions
// with the highest scores are predicted UVs; precision/recall/F1 follow.
struct TopPercentMetrics {
  double recall = 0.0;
  double precision = 0.0;
  double f1 = 0.0;
  int num_predicted = 0;
};
TopPercentMetrics TopPercent(const std::vector<float>& scores,
                             const std::vector<int>& labels, double percent);

// The full metric row used across tables: AUC + top-3% + top-5%.
struct DetectionMetrics {
  double auc = 0.0;
  TopPercentMetrics at3;
  TopPercentMetrics at5;
};
DetectionMetrics ComputeDetectionMetrics(const std::vector<float>& scores,
                                         const std::vector<int>& labels);

// Mean / standard deviation aggregation across repeated runs.
struct MeanStd {
  double mean = 0.0;
  double std = 0.0;
};
MeanStd Aggregate(const std::vector<double>& values);

// Percentile (p in [0, 100]) of the given samples: the sorted sample at
// index floor(p * n / 100), clamped to the last. This is not nearest-rank
// (obs::ComputeRobustStats is): p50 of an even-sized sample is the upper
// median, and p95 of 20 samples is the maximum. cmsfbench reports setup_s
// and latency_ms_p50 through it, so the definition stays. Takes a copy so
// callers keep their ordering. Returns 0 on an empty input.
double Percentile(std::vector<double> values, double p);

}  // namespace uv::eval

#endif  // UV_EVAL_METRICS_H_
