// Training workloads: one per-city CMSF detector trained and scored end to
// end through the public CmsfDetector API, once on the full graph and once
// through the sampled-minibatch path over a district-sharded URG.

#include <algorithm>
#include <memory>
#include <vector>

#include "common.h"
#include "core/cmsf_detector.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "urg/feature_store.h"
#include "urg/neighbor_sampler.h"
#include "util/timer.h"
#include "workloads.h"

namespace uvbench {
namespace {

using uv::obs::Direction;
using uv::obs::SpanGuard;
using uv::obs::SpanLevel;

// Everything a training job reports back.
struct JobResult {
  std::vector<float> scores;       // Final scores of the job's eval ids.
  std::vector<double> step_ms;     // One sample per master epoch.
  double seconds = 0.0;            // Train + score wall time.
};

// Trains a fresh detector and scores `eval_ids` `score_calls` times; every
// call must return the same scores.
JobResult TrainAndScore(Run* run, const uv::core::CmsfConfig& config,
                        const uv::urg::UrbanRegionGraph& urg,
                        const std::vector<int>& train_ids,
                        const std::vector<int>& train_labels,
                        const std::vector<int>& eval_ids, int steps_per_epoch,
                        int score_calls) {
  JobResult job;
  uv::WallTimer timer;
  uv::core::CmsfDetector detector(config);
  {
    SpanGuard span("bench.train", SpanLevel::kCoarse);
    detector.Train(urg, train_ids, train_labels);
  }
  for (double s : detector.EpochSecondsHistory()) {
    job.step_ms.push_back(s * 1e3 / steps_per_epoch);
  }
  for (int call = 0; call < score_calls; ++call) {
    SpanGuard span("bench.score", SpanLevel::kCoarse);
    std::vector<float> scores = detector.Score(urg, eval_ids);
    if (call > 0 && scores != job.scores) {
      run->Fail("repeated Score calls returned different scores");
    }
    job.scores = std::move(scores);
  }
  job.seconds = timer.Seconds();
  for (float s : job.scores) {
    if (!(s >= 0.0f && s <= 1.0f)) {
      run->Fail("score outside [0, 1]");
      break;
    }
  }
  return job;
}

// Repeats the job until the measured phase is spent: always once, and
// never starting a job the mean so far says would overrun. A traced run
// keeps to one job so the span buffers cannot fill. Every repeat must
// reproduce the first job's scores bit for bit.
template <typename JobFn>
std::vector<JobResult> RepeatJobs(Run* run, JobFn&& job_fn) {
  std::vector<JobResult> jobs;
  double spent = 0.0;
  do {
    jobs.push_back(job_fn());
    spent += jobs.back().seconds;
    if (jobs.size() > 1 && jobs.back().scores != jobs.front().scores) {
      run->Fail("training job is not deterministic for a fixed seed");
    }
  } while (!run->traced() &&
           spent + spent / jobs.size() <= run->options().seconds);
  return jobs;
}

// The end-to-end metrics of a training workload: city regions per second
// of train-and-score wall time, and the median master step.
void ReportTraining(Run* run, const std::vector<JobResult>& jobs,
                    int num_regions, int steps_per_epoch) {
  std::vector<double> step_ms;
  double seconds = 0.0;
  for (const JobResult& job : jobs) {
    step_ms.insert(step_ms.end(), job.step_ms.begin(), job.step_ms.end());
    seconds += job.seconds;
  }
  const double steps = static_cast<double>(step_ms.size()) * steps_per_epoch;
  run->Attempted(static_cast<int64_t>(steps));
  run->Count("ops", steps);
  run->Count("jobs", static_cast<double>(jobs.size()));
  run->Metric("regions_per_s", num_regions * jobs.size() / seconds,
              "regions/s", Direction::kHigherIsBetter);
  run->Metric("latency_ms_p50", Median(step_ms), "ms",
              Direction::kLowerIsBetter);
}

}  // namespace

void RunTrainFull(Run* run) {
  const uint64_t seed = run->options().seed;
  const auto city = TimedSetups(run, [&] {
    return MakeDenseCity(run->Pick(0.02, 0.02, 0.005), seed);
  });

  // The quickstart configuration (examples/quickstart.cpp).
  uv::core::CmsfConfig config;
  config.num_clusters = 30;
  config.master_epochs = run->Pick(80, 4, 3);
  config.slave_epochs = run->Pick(20, 1, 1);
  config.seed = seed;
  const int kScoreCalls = run->Pick(3, 1, 1);

  std::vector<JobResult> jobs;
  {
    const TracePhase trace(run, "measure");
    const PoolWindow pool;
    SpanGuard span("bench.measure", SpanLevel::kCoarse);
    jobs = RepeatJobs(run, [&] {
      return TrainAndScore(run, config, city->urg, city->train_ids,
                           city->train_labels, city->all_ids,
                           /*steps_per_epoch=*/1, kScoreCalls);
    });
    pool.Report(run, static_cast<double>(jobs.size()) * config.master_epochs);
  }
  run->Count("score_calls", static_cast<double>(jobs.size()) * kScoreCalls);
  ReportTraining(run, jobs, city->urg.num_regions(), 1);

  std::vector<float> heldout;
  for (int id : city->heldout_ids) heldout.push_back(jobs[0].scores[id]);
  CheckedAuc(run, heldout, city->heldout_truth);
}

namespace {

// The minibatch city: a Shenzhen-like synthetic without eager tiles,
// behind the district-sharded URG and the lazy feature store. The store's
// cache holds under half the city, so every epoch renders and encodes
// tiles on misses as a paper-scale city does.
struct ShardedCity {
  std::shared_ptr<const uv::synth::City> city;
  uv::urg::UrbanRegionGraph urg;
  uv::urg::ShardOptions shard_options;
  std::vector<int> train_ids;
  std::vector<int> train_labels;
  std::vector<int> heldout_ids;
  std::vector<int> heldout_truth;
};

std::unique_ptr<ShardedCity> MakeShardedCity(const Run& run, uint64_t seed) {
  auto out = std::make_unique<ShardedCity>();
  uv::synth::CityConfig config =
      uv::synth::ShenzhenLike(run.Pick(0.05, 0.005, 0.005), kCitySeed);
  config.generate_images = false;
  {
    SpanGuard span("bench.generate", SpanLevel::kCoarse);
    out->city = std::make_shared<const uv::synth::City>(
        uv::synth::GenerateCity(config));
  }
  // A fixed shard count keeps the tiling independent of the thread count.
  out->shard_options.num_shards = 4;
  // Traced and smoke cities fit the cache whole: every tile miss adds
  // dozens of kernel spans, and the freeze sweep misses across the city.
  out->shard_options.feature_store.cache_rows = run.Pick(2048, 1024, 1024);
  {
    SpanGuard span("bench.urg_build", SpanLevel::kCoarse);
    out->urg = uv::urg::BuildShardedUrg(out->city, uv::urg::UrgOptions{},
                                        out->shard_options);
  }
  // Train on labelled ids at an even stride over the city, starting at a
  // seed-chosen offset; hold out regions at an even stride between them.
  const int num_train = run.Pick(256, 64, 64);
  const int num_heldout = run.Pick(512, 64, 64);
  const std::vector<int> labelled = out->urg.LabeledIds();
  const size_t stride = std::max<size_t>(1, labelled.size() / num_train);
  std::vector<char> in_train(static_cast<size_t>(out->urg.num_regions()), 0);
  for (size_t i = seed % stride; i < labelled.size() &&
                     out->train_ids.size() < static_cast<size_t>(num_train);
       i += stride) {
    out->train_ids.push_back(labelled[i]);
    out->train_labels.push_back(out->urg.labels[labelled[i]]);
    in_train[labelled[i]] = 1;
  }
  const int n = out->urg.num_regions();
  const int heldout_stride = std::max(1, n / num_heldout);
  for (int id = heldout_stride / 2; id < n; id += heldout_stride) {
    if (in_train[id]) continue;
    out->heldout_ids.push_back(id);
    out->heldout_truth.push_back(out->urg.is_uv[id]);
  }
  return out;
}

// Traced runs only: replays the first batches of the training ids on a
// fresh URG (cold feature cache) and times the sampler and the feature
// gather on their own, which no library span covers.
void ReplayBatches(Run* run, const ShardedCity& city,
                   const uv::core::CmsfConfig& config) {
  const uv::urg::UrbanRegionGraph urg = uv::urg::BuildShardedUrg(
      city.city, uv::urg::UrgOptions{}, city.shard_options);
  const uv::urg::NeighborView view(urg);
  uv::urg::MinibatchConfig mcfg;
  mcfg.batch_size = config.batch_size;
  mcfg.fanout = config.fanout;
  mcfg.hops = config.maga_layers;
  mcfg.seed = config.seed;
  constexpr int kBatches = 8;
  double sample_s = 0.0, gather_s = 0.0, nodes = 0.0, edges = 0.0;
  int batches = 0;
  for (int b = 0; b < kBatches; ++b) {
    const size_t begin = static_cast<size_t>(b) * config.batch_size;
    if (begin >= city.train_ids.size()) break;
    const size_t end =
        std::min(city.train_ids.size(), begin + config.batch_size);
    const std::vector<int> seeds(city.train_ids.begin() + begin,
                                 city.train_ids.begin() + end);
    uv::WallTimer timer;
    const uv::urg::SampledSubgraph sg = uv::urg::SampleKHop(view, seeds, mcfg);
    sample_s += timer.Seconds();
    timer.Reset();
    const uv::urg::SubgraphFeatures features =
        uv::urg::GatherSubgraphFeatures(urg, sg);
    gather_s += timer.Seconds();
    nodes += sg.num_nodes();
    edges += static_cast<double>(sg.num_edges());
    ++batches;
  }
  run->Layer("urg.sample_ms", sample_s * 1e3 / batches, "ms/batch");
  run->Layer("urg.gather_ms", gather_s * 1e3 / batches, "ms/batch");
  run->Layer("urg.subgraph_nodes", nodes / batches, "count/batch");
  run->Layer("urg.subgraph_edges", edges / batches, "count/batch");
}

}  // namespace

void RunTrainMinibatch(Run* run) {
  const uint64_t seed = run->options().seed;
  const auto city =
      TimedSetups(run, [&] { return MakeShardedCity(*run, seed); });

  uv::core::CmsfConfig config;
  config.num_clusters = 30;
  config.master_epochs = run->Pick(10, 2, 2);
  config.slave_epochs = run->Pick(2, 1, 1);
  config.batch_size = 64;
  config.fanout = 8;
  config.seed = seed;
  const int steps_per_epoch =
      (static_cast<int>(city->train_ids.size()) + config.batch_size - 1) /
      config.batch_size;

  const auto* store =
      dynamic_cast<const uv::urg::LazyFeatureStore*>(city->urg.features.get());
  if (store == nullptr) {
    run->Fail("the sharded URG has no lazy feature store");
    return;
  }
  const uint64_t hits0 = store->cache_hits();
  const uint64_t misses0 = store->cache_misses();
  uv::obs::Counter& tiles =
      uv::obs::Registry::Global().GetCounter("synth.tiles_rendered");
  const uint64_t tiles0 = tiles.Value();

  std::vector<JobResult> jobs;
  double steps = 0.0;
  {
    const TracePhase trace(run, "measure");
    const PoolWindow pool;
    SpanGuard span("bench.measure", SpanLevel::kCoarse);
    jobs = RepeatJobs(run, [&] {
      return TrainAndScore(run, config, city->urg, city->train_ids,
                           city->train_labels, city->heldout_ids,
                           steps_per_epoch, /*score_calls=*/1);
    });
    steps = static_cast<double>(jobs.size()) * config.master_epochs *
            steps_per_epoch;
    pool.Report(run, steps);
  }
  run->Count("score_calls", static_cast<double>(jobs.size()));
  ReportTraining(run, jobs, city->urg.num_regions(), steps_per_epoch);
  CheckedAuc(run, jobs[0].scores, city->heldout_truth);

  const double hits = static_cast<double>(store->cache_hits() - hits0);
  const double misses = static_cast<double>(store->cache_misses() - misses0);
  run->Layer("urg.feature_cache_hit_ratio",
             hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  run->Layer("synth.tiles_rendered",
             static_cast<double>(tiles.Value() - tiles0) / steps, "count/op");
  if (run->traced()) ReplayBatches(run, *city, config);
}

}  // namespace uvbench
