#ifndef UV_EVAL_RUNNER_H_
#define UV_EVAL_RUNNER_H_

#include <functional>
#include <memory>

#include "eval/detector.h"
#include "eval/metrics.h"
#include "eval/splits.h"
#include "obs/report.h"
#include "util/buffer_pool.h"

namespace uv::eval {

// Builds a fresh detector for one (run, fold); the seed decorrelates
// repeated runs.
using DetectorFactory =
    std::function<std::unique_ptr<Detector>(uint64_t seed)>;

struct RunnerOptions {
  int num_folds = 3;    // Paper: 3-fold cross validation.
  int num_runs = 1;     // Paper reports mean/std over 5 random runs.
  int block_size = 10;  // Paper: 10x10-grid blocks as CV units.
  uint64_t seed = 1234;
  double label_ratio = 1.0;  // < 1 applies the Fig. 6(c) training mask.
};

// Aggregated cross-validation result for one detector on one dataset.
struct RunStats {
  MeanStd auc;
  MeanStd recall3, precision3, f13;
  MeanStd recall5, precision5, f15;
  // Mean per-detector timings over all measured (run, fold) pairs.
  double train_seconds_per_epoch = 0.0;
  double inference_seconds = 0.0;
  // End-to-end wall clock of the whole cross-validation, which with
  // fold-level parallelism can be far below the summed per-detector time.
  double wall_seconds = 0.0;
  // Sum of each (run, fold) job's own wall clock. On one thread this
  // approaches wall_seconds (minus split drawing and aggregation); with
  // fold-level parallelism it exceeds it by roughly the speedup factor.
  // Report it next to wall_seconds — quoting either alone misleads.
  double summed_job_seconds = 0.0;
  // Parameter count of one detector (identical across folds; counted once).
  int64_t num_parameters = 0;
  // Percentiles (eval::Percentile) of per-epoch wall times pooled over
  // every (run, fold) detector that reports an epoch history (0 when none
  // do).
  double epoch_seconds_p50 = 0.0;
  double epoch_seconds_p95 = 0.0;
  // BufferPool activity during this cross-validation (delta of the global
  // counters across the call; counters are always maintained, UV_MEM_STATS
  // only controls whether tools print them).
  MemStatsSnapshot mem;
};

// Runs the paper's evaluation protocol: block-level k-fold CV repeated
// num_runs times; metrics are computed on each test fold and aggregated
// over all (run, fold) pairs.
//
// (run, fold) jobs execute in parallel on the UV_THREADS pool: every job
// gets an independently seeded detector, the fold splits are drawn
// serially beforehand (so RNG consumption order never depends on the
// thread count), and per-fold metrics land in a preallocated slot vector
// that is aggregated in job order — results are identical for any
// UV_THREADS value.
RunStats RunCrossValidation(const urg::UrbanRegionGraph& urg,
                            const DetectorFactory& factory,
                            const RunnerOptions& options);

// Serializes one RunStats into the named benchmark entry of a perf ledger:
// quality metrics (AUC, Recall/Precision/F1 at p = 3 and 5; direction
// "higher"), timing metrics (wall, per-epoch, inference; direction
// "lower"), and the pool-counter deltas as informational values. This is
// the single path every bench leg and the --json flag of the example
// runners use, so ledgers stay schema-uniform.
void AppendRunStats(obs::Report* report, const std::string& name,
                    const RunStats& stats);

}  // namespace uv::eval

#endif  // UV_EVAL_RUNNER_H_
