// bench_suite --scaling: thread-scaling curves for the parallel compute
// layer. Times the blocked Gemm, the conv forward+backward batch kernels,
// the CSR segment aggregation, and one full RunCrossValidation at 1/2/4/N
// threads, checks that metric outputs stay bit-identical across thread
// counts, and records one ledger entry per (kernel, thread count), with
// per-thread speedups attached as metrics.
//
//   UV_BENCH_* knobs apply to the cross-validation leg (see
//   bench_common.h); UV_THREADS caps the largest thread count swept.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "legs.h"
#include "tensor/tensor_ops.h"
#include "util/thread_pool.h"

namespace uv::bench {
namespace {

struct Curve {
  std::string name;
  std::vector<int> threads;
  std::vector<double> seconds;

  void Print() const {
    std::printf("%-24s", name.c_str());
    for (size_t i = 0; i < threads.size(); ++i) {
      std::printf("  %d:%8.4fs (%.2fx)", threads[i], seconds[i],
                  seconds.front() / seconds[i]);
    }
    std::printf("\n");
  }
};

// Times fn at every pool size through the shared measurement protocol
// (1 warmup to cover first touch + pool wake, best-of-reps summary) and
// lands every repeat in the ledger under "<name>/t<threads>".
Curve Sweep(obs::Report* report, const std::string& name,
            const std::vector<int>& thread_counts, int reps,
            const std::function<void()>& fn) {
  Curve curve;
  curve.name = name;
  for (const int t : thread_counts) {
    ThreadPool::SetGlobalThreads(t);
    auto& entry =
        report->RunTimed(name + "/t" + std::to_string(t), 1, reps, fn);
    curve.threads.push_back(t);
    curve.seconds.push_back(entry.Stats().min);
  }
  for (size_t i = 0; i < curve.threads.size(); ++i) {
    report->Bench(name + "/t" + std::to_string(curve.threads[i]))
        .AddMetric("speedup_vs_t1", curve.seconds.front() / curve.seconds[i]);
  }
  curve.Print();
  return curve;
}

}  // namespace

obs::Report RunScalingLeg(BenchConfig bench, bool* passed) {
  const int hw = ThreadPool::NumThreadsFromEnv();
  std::vector<int> thread_counts = {1, 2, 4};
  if (hw > 4) thread_counts.push_back(hw);
  thread_counts.erase(
      std::unique(thread_counts.begin(), thread_counts.end()),
      thread_counts.end());
  std::printf("=== thread scaling (max env threads: %d) ===\n\n", hw);

  obs::Report report = MakeReport("scaling", bench);
  report.SetConfig("max_env_threads", static_cast<int64_t>(hw));

  // --- Blocked GEMM, 512x512x512. ---
  {
    const Tensor a = RandomTensor(512, 512, 1);
    const Tensor b = RandomTensor(512, 512, 2);
    Tensor c(512, 512);
    Sweep(&report, "gemm_512x512x512", thread_counts, 5, [&] {
      Gemm(false, false, 1.0f, a, b, 0.0f, &c);
    });
  }

  // --- Conv2d forward + backward on a 32-image batch. ---
  {
    const Conv2dSpec spec{3, 32, 32, 16, 3, 1, 1};
    const Tensor x0 = RandomTensor(32, 3 * 32 * 32, 3);
    const Tensor w0 = RandomTensor(16, 3 * 9, 4);
    const Tensor b0 = RandomTensor(1, 16, 5);
    Sweep(&report, "conv_fwd_bwd_batch32", thread_counts, 3, [&] {
      auto x = ag::MakeParam(x0);
      auto w = ag::MakeParam(w0);
      auto b = ag::MakeParam(b0);
      auto y = ag::Conv2d(x, w, b, spec);
      ag::Backward(ag::SumAll(ag::Mul(y, y)));
    });
  }

  // --- CSR segment aggregation (fused edge softmax + neighbor sum). ---
  Sweep(&report, "graph_segment_fwd_bwd", thread_counts, 3,
        SegmentFwdBwd(6));

  // --- Fold-level parallel cross-validation. ---
  if (std::getenv("UV_BENCH_RUNS") == nullptr) bench.runs = 2;
  const std::string city = "Fuzhou";
  const urg::UrbanRegionGraph urg = BuildCityUrg(city, bench);
  const eval::DetectorFactory factory = MakeFactory("GCN", city, bench);
  const eval::RunnerOptions options = MakeRunnerOptions(bench);

  Curve curve;
  curve.name = "cross_validation_gcn";
  std::vector<eval::RunStats> stats_at;
  for (const int t : thread_counts) {
    ThreadPool::SetGlobalThreads(t);
    const eval::RunStats stats =
        eval::RunCrossValidation(urg, factory, options);
    curve.threads.push_back(t);
    curve.seconds.push_back(stats.wall_seconds);
    eval::AppendRunStats(&report, curve.name + "/t" + std::to_string(t),
                         stats);
    stats_at.push_back(stats);
  }
  for (size_t i = 0; i < curve.threads.size(); ++i) {
    report.Bench(curve.name + "/t" + std::to_string(curve.threads[i]))
        .AddMetric("speedup_vs_t1", curve.seconds.front() / curve.seconds[i]);
  }
  bool identical = true;
  for (const eval::RunStats& s : stats_at) {
    identical = identical && s.auc.mean == stats_at.front().auc.mean &&
                s.recall3.mean == stats_at.front().recall3.mean &&
                s.precision3.mean == stats_at.front().precision3.mean;
  }
  curve.Print();
  std::printf("cross-validation metrics bit-identical across threads: %s\n",
              identical ? "yes" : "NO");
  // Gated metric: 1 means the determinism contract held; a drop to 0
  // fails bench_diff in the "higher is better" direction.
  report.Bench(curve.name + "/t" + std::to_string(thread_counts.front()))
      .AddMetric("metrics_bit_identical_across_threads",
                 identical ? 1.0 : 0.0, obs::Direction::kHigherIsBetter);
  *passed = identical;
  return report;
}

}  // namespace uv::bench
