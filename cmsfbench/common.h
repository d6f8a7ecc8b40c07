#ifndef CMSFBENCH_COMMON_H_
#define CMSFBENCH_COMMON_H_

// Shared plumbing of the workload benchmark: the command line, the result
// sink every workload reports into, and the synthetic-city set-ups the
// workloads share. Everything here is built from the library's public
// headers only.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/report.h"
#include "obs/trace.h"
#include "synth/city.h"
#include "urg/urban_region_graph.h"
#include "util/buffer_pool.h"

namespace uvbench {

struct Options {
  std::string workload;
  uint64_t seed = 2023;
  double seconds = 10.0;  // Length of the measured phase.
  std::string dir = ".";  // Checkpoints, the ledger and traces go here.
  bool trace = false;     // Record spans and report per-layer metrics.
  bool smoke = false;     // Tiny inputs: checks plumbing, measures nothing.

  // Parses --workload, --seed, --seconds, --dir, --trace, --smoke. Prints
  // the problem and returns false on a malformed or missing value.
  bool Parse(int argc, char** argv);
};

// Collects one run's metrics and check results. Metric lines go to stdout
// as "<metric> <workload> <value> <unit>"; end-to-end metrics print in
// every run, per-layer ones only in traced runs. Count lines
// ("count <name> <value>") give the trace rollup its normalisation bases.
class Run {
 public:
  explicit Run(const Options& options);

  const Options& options() const { return options_; }
  bool traced() const { return options_.trace; }

  // A workload size for this run: the measured size, the shortened traced
  // variant (small enough that the tracer's span buffers never fill), or
  // the smoke size. Per-layer metrics are normalised per operation, so
  // traced runs compare with traced runs.
  template <typename T>
  T Pick(T full, T traced, T smoke) const {
    return options_.smoke ? smoke : options_.trace ? traced : full;
  }

  void Metric(const std::string& name, double value, const char* unit,
              uv::obs::Direction direction);
  void Layer(const std::string& name, double value, const char* unit);
  void Count(const std::string& name, double value);

  // Operations the measured phase attempted, and the ones that failed a
  // check (a wrong score, an error Status, a non-finite quality number).
  void Attempted(int64_t n) { attempted_ += n; }
  void Fail(const std::string& why, int64_t n = 1);

  // Spans the tracer dropped in a traced phase (reported at Finish).
  void AddDroppedSpans(uint64_t n) { dropped_spans_ += n; }

  // Prints the result line, writes the ledger into options.dir, and
  // returns the process exit code: 0 only when every check held.
  int Finish();

 private:
  Options options_;
  uv::obs::Report report_;
  uv::obs::BenchmarkEntry* entry_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  uint64_t dropped_spans_ = 0;
};

// In a traced run, records one phase ("setup" or "measure") into its own
// file, <dir>/<workload>.<phase>.trace.json. Starting a trace clears the
// span buffers, so each phase gets the tracer's whole capacity. Does
// nothing in an untraced run.
class TracePhase {
 public:
  TracePhase(Run* run, const char* phase);
  ~TracePhase();
  TracePhase(const TracePhase&) = delete;
  TracePhase& operator=(const TracePhase&) = delete;

 private:
  Run* run_;
};

// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

// Peak resident set size of this process so far, in MB.
double PeakRssMb();

// Seed of the synthetic cities (quickstart's). The city is each workload's
// fixed dataset; --seed drives the fold split, model initialisation,
// neighbour sampling and request streams. A per-seed city would change
// the edge count, and with it the work per step, by tens of percent.
inline constexpr uint64_t kCitySeed = 42;

// A Shenzhen-like synthetic city with a dense URG and the paper's block
// k-fold split (fold 0 of BlockKFold(3, 10), shuffled by `seed`). The
// held-out set is every region outside the training ids, scored against
// the generator's ground truth, so the quality check does not depend on
// how few labelled UVs a small city's test fold happens to hold.
struct DenseCity {
  uv::urg::UrbanRegionGraph urg;
  std::vector<int> train_ids;
  std::vector<int> train_labels;
  std::vector<int> heldout_ids;
  std::vector<int> heldout_truth;
  std::vector<int> all_ids;
};
std::unique_ptr<DenseCity> MakeDenseCity(double scale, uint64_t seed);

// The held-out AUC against ground truth: checked finite, and reported as
// core.auc_heldout in traced runs.
void CheckedAuc(Run* run, const std::vector<float>& scores,
                const std::vector<int>& truth);

// Buffer-pool counters over the measured phase: construct at its start,
// Report at its end (util.* per-layer metrics, per operation).
class PoolWindow {
 public:
  PoolWindow();
  void Report(Run* run, double ops) const;

 private:
  uv::MemStatsSnapshot start_;
};

// Set-up timing shared by every workload: runs `setup` three times (once
// when traced), each a fresh and identical build from the seed, reports
// the median wall time as setup_s, and returns the last result. The
// previous result is freed before the next build so peak memory holds one
// set-up, not three.
template <typename SetupFn>
auto TimedSetups(Run* run, SetupFn&& setup) -> decltype(setup()) {
  const int setups = run->traced() ? 1 : 3;
  std::vector<double> seconds;
  decltype(setup()) state;
  const TracePhase trace(run, "setup");
  for (int i = 0; i < setups; ++i) {
    state = nullptr;
    uv::obs::SpanGuard span("bench.setup", uv::obs::SpanLevel::kCoarse);
    const auto start = std::chrono::steady_clock::now();
    state = setup();
    seconds.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  }
  run->Count("setups", setups);
  run->Metric("setup_s", Median(seconds), "s",
              uv::obs::Direction::kLowerIsBetter);
  return state;
}

}  // namespace uvbench

#endif  // CMSFBENCH_COMMON_H_
