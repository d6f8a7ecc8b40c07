#include "eval/runner.h"

#include <cstdio>
#include <vector>

#include "obs/metrics_log.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace uv::eval {
namespace {

// One (run, fold) unit of work, fully materialized before any training
// starts so the shared split RNG is consumed in a fixed serial order.
struct FoldJob {
  int run = 0;
  int fold = 0;
  uint64_t detector_seed = 0;
  std::vector<int> train_ids;
  std::vector<int> train_labels;
  std::vector<int> test_ids;
  std::vector<int> test_labels;
};

struct FoldResult {
  DetectionMetrics metrics;
  double train_seconds_per_epoch = 0.0;
  double inference_seconds = 0.0;
  double job_seconds = 0.0;
  int64_t num_parameters = 0;
  std::vector<double> epoch_seconds;
};

}  // namespace

RunStats RunCrossValidation(const urg::UrbanRegionGraph& urg,
                            const DetectorFactory& factory,
                            const RunnerOptions& options) {
  const std::vector<int> labeled = urg.LabeledIds();

  // Phase 1 (serial): draw every split and label mask.
  std::vector<FoldJob> jobs;
  for (int run = 0; run < options.num_runs; ++run) {
    Rng rng(options.seed + 7919ull * run);
    const auto folds = BlockKFold(urg.grid, labeled, options.num_folds,
                                  options.block_size, &rng);
    for (size_t f = 0; f < folds.size(); ++f) {
      FoldJob job;
      job.run = run;
      job.fold = static_cast<int>(f);
      job.detector_seed = options.seed + 104729ull * run + 31ull * f;
      job.train_ids = folds[f].train_ids;
      if (options.label_ratio < 1.0) {
        job.train_ids = MaskLabeledRatio(job.train_ids, urg.labels,
                                         options.label_ratio, &rng);
      }
      job.train_labels.resize(job.train_ids.size());
      for (size_t i = 0; i < job.train_ids.size(); ++i) {
        job.train_labels[i] = urg.labels[job.train_ids[i]];
      }
      job.test_ids = folds[f].test_ids;
      job.test_labels.resize(job.test_ids.size());
      for (size_t i = 0; i < job.test_ids.size(); ++i) {
        job.test_labels[i] = urg.labels[job.test_ids[i]];
      }
      jobs.push_back(std::move(job));
    }
  }

  // Phase 2 (parallel): each job trains its own freshly seeded detector
  // and writes into its preallocated slot; nothing is shared across jobs.
  std::vector<FoldResult> results(jobs.size());
  // Peak footprint should cover this cross-validation only, not whatever
  // high-water mark URG construction left behind.
  BufferPool::ResetPeak();
  const MemStatsSnapshot mem_before = BufferPool::Stats();
  WallTimer wall;
  {
    obs::SpanGuard cv_span("cross_validation", obs::SpanLevel::kCoarse,
                           "jobs", static_cast<int>(jobs.size()));
    ParallelFor(0, static_cast<int64_t>(jobs.size()), 1,
                [&](int64_t j0, int64_t j1) {
                  for (int64_t j = j0; j < j1; ++j) {
                    const FoldJob& job = jobs[j];
                    obs::SpanGuard fold_span("fold", obs::SpanLevel::kCoarse,
                                             "run", job.run, "fold", job.fold);
                    obs::FoldScope fold_scope(job.run, job.fold);
                    WallTimer job_timer;
                    auto detector = factory(job.detector_seed);
                    detector->Train(urg, job.train_ids, job.train_labels);
                    const std::vector<float> scores =
                        detector->Score(urg, job.test_ids);
                    FoldResult& r = results[j];
                    r.metrics =
                        ComputeDetectionMetrics(scores, job.test_labels);
                    r.train_seconds_per_epoch =
                        detector->TrainSecondsPerEpoch();
                    r.inference_seconds = detector->LastInferenceSeconds();
                    r.job_seconds = job_timer.Seconds();
                    r.num_parameters = detector->NumParameters();
                    r.epoch_seconds = detector->EpochSecondsHistory();
                    obs::MetricsRecord("fold")
                        .Num("auc", r.metrics.auc)
                        .Num("recall3", r.metrics.at3.recall)
                        .Num("precision3", r.metrics.at3.precision)
                        .Num("seconds", r.job_seconds)
                        .Emit();
                  }
                });
  }
  const double wall_seconds = wall.Seconds();
  const MemStatsSnapshot mem_after = BufferPool::Stats();

  // Phase 3 (serial): aggregate in job order, independent of which worker
  // finished when.
  std::vector<double> aucs, r3, p3, f3, r5, p5, f5;
  std::vector<double> epoch_samples;
  double train_time = 0.0, infer_time = 0.0, summed_job = 0.0;
  int measured = 0;
  for (size_t j = 0; j < results.size(); ++j) {
    const DetectionMetrics& m = results[j].metrics;
    epoch_samples.insert(epoch_samples.end(),
                         results[j].epoch_seconds.begin(),
                         results[j].epoch_seconds.end());
    aucs.push_back(m.auc);
    r3.push_back(m.at3.recall);
    p3.push_back(m.at3.precision);
    f3.push_back(m.at3.f1);
    r5.push_back(m.at5.recall);
    p5.push_back(m.at5.precision);
    f5.push_back(m.at5.f1);
    train_time += results[j].train_seconds_per_epoch;
    infer_time += results[j].inference_seconds;
    summed_job += results[j].job_seconds;
    ++measured;
    UV_LOG_DEBUG("run %d fold %d: auc=%.3f r3=%.3f p3=%.3f", jobs[j].run,
                 jobs[j].fold, m.auc, m.at3.recall, m.at3.precision);
  }

  RunStats stats;
  stats.auc = Aggregate(aucs);
  stats.recall3 = Aggregate(r3);
  stats.precision3 = Aggregate(p3);
  stats.f13 = Aggregate(f3);
  stats.recall5 = Aggregate(r5);
  stats.precision5 = Aggregate(p5);
  stats.f15 = Aggregate(f5);
  if (measured > 0) {
    stats.train_seconds_per_epoch = train_time / measured;
    stats.inference_seconds = infer_time / measured;
    // Every fold builds the same architecture; count one detector, not
    // the last fold's by accident.
    stats.num_parameters = results.front().num_parameters;
  }
  stats.wall_seconds = wall_seconds;
  stats.summed_job_seconds = summed_job;
  stats.epoch_seconds_p50 = Percentile(epoch_samples, 50.0);
  stats.epoch_seconds_p95 = Percentile(epoch_samples, 95.0);
  stats.mem.acquires = mem_after.acquires - mem_before.acquires;
  stats.mem.hits = mem_after.hits - mem_before.hits;
  stats.mem.heap_allocs = mem_after.heap_allocs - mem_before.heap_allocs;
  stats.mem.heap_bytes = mem_after.heap_bytes - mem_before.heap_bytes;
  stats.mem.releases = mem_after.releases - mem_before.releases;
  stats.mem.tls_spills = mem_after.tls_spills - mem_before.tls_spills;
  // Gauges, not monotone counters: report the end-of-phase footprint and
  // the phase-local high-water mark (ResetPeak above).
  stats.mem.pool_bytes = mem_after.pool_bytes;
  stats.mem.pool_bytes_peak = mem_after.pool_bytes_peak;
  if (MemStatsRequested()) {
    // Stderr so tables and scores on stdout stay machine-comparable.
    std::fprintf(stderr, "%s\n", FormatMemStats(stats.mem).c_str());
  }
  obs::MetricsRecord("summary")
      .Num("auc_mean", stats.auc.mean)
      .Num("auc_std", stats.auc.std)
      .Num("wall_seconds", stats.wall_seconds)
      .Num("epoch_seconds_p50", stats.epoch_seconds_p50)
      .Num("epoch_seconds_p95", stats.epoch_seconds_p95)
      .Emit();
  return stats;
}

void AppendRunStats(obs::Report* report, const std::string& name,
                    const RunStats& stats) {
  obs::BenchmarkEntry& b = report->Bench(name);
  // The whole cross-validation wall clock doubles as the entry's one
  // timed repeat, so ledger diffing sees table benches too.
  b.AddRepeat(stats.wall_seconds);
  b.AddMetric("auc_mean", stats.auc.mean, obs::Direction::kHigherIsBetter);
  b.AddMetric("auc_std", stats.auc.std);
  b.AddMetric("recall3_mean", stats.recall3.mean,
              obs::Direction::kHigherIsBetter);
  b.AddMetric("precision3_mean", stats.precision3.mean,
              obs::Direction::kHigherIsBetter);
  b.AddMetric("f13_mean", stats.f13.mean, obs::Direction::kHigherIsBetter);
  b.AddMetric("recall5_mean", stats.recall5.mean,
              obs::Direction::kHigherIsBetter);
  b.AddMetric("precision5_mean", stats.precision5.mean,
              obs::Direction::kHigherIsBetter);
  b.AddMetric("f15_mean", stats.f15.mean, obs::Direction::kHigherIsBetter);
  b.AddMetric("wall_seconds", stats.wall_seconds,
              obs::Direction::kLowerIsBetter);
  b.AddMetric("summed_job_seconds", stats.summed_job_seconds);
  b.AddMetric("train_seconds_per_epoch", stats.train_seconds_per_epoch,
              obs::Direction::kLowerIsBetter);
  b.AddMetric("inference_seconds", stats.inference_seconds,
              obs::Direction::kLowerIsBetter);
  b.AddMetric("epoch_seconds_p50", stats.epoch_seconds_p50,
              obs::Direction::kLowerIsBetter);
  b.AddMetric("epoch_seconds_p95", stats.epoch_seconds_p95,
              obs::Direction::kLowerIsBetter);
  b.AddMetric("num_parameters", static_cast<double>(stats.num_parameters));
  b.AddMetric("mem.acquires", static_cast<double>(stats.mem.acquires));
  b.AddMetric("mem.pool_hits", static_cast<double>(stats.mem.hits));
  b.AddMetric("mem.heap_allocs", static_cast<double>(stats.mem.heap_allocs));
  b.AddMetric("mem.pool_bytes_peak",
              static_cast<double>(stats.mem.pool_bytes_peak));
}

}  // namespace uv::eval
