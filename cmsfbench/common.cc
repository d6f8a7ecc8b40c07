#include "common.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "eval/metrics.h"
#include "eval/splits.h"
#include "urg/neighbor_sampler.h"
#include "util/rng.h"

namespace uvbench {

bool Options::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--trace") {
      trace = true;
      continue;
    }
    if (flag == "--smoke") {
      smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "flag %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--dir") {
      dir = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') {
        std::fprintf(stderr, "bad --seed '%s'\n", value.c_str());
        return false;
      }
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(seconds > 0.0)) {
        std::fprintf(stderr, "bad --seconds '%s'\n", value.c_str());
        return false;
      }
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (workload.empty()) {
    std::fprintf(stderr, "--workload is required\n");
    return false;
  }
  return true;
}

Run::Run(const Options& options)
    : options_(options),
      report_("cmsfbench"),
      entry_(&report_.Bench("workload." + options.workload)) {
  report_.SetConfig("workload", options.workload);
  report_.SetConfig("seed", static_cast<int64_t>(options.seed));
  report_.SetConfig("seconds", options.seconds);
  report_.SetConfig("trace", static_cast<int64_t>(options.trace));
  report_.SetConfig("smoke", static_cast<int64_t>(options.smoke));
}

void Run::Metric(const std::string& name, double value, const char* unit,
                 uv::obs::Direction direction) {
  std::printf("%s %s %.17g %s\n", name.c_str(), options_.workload.c_str(),
              value, unit);
  entry_->AddMetric(name, value, direction);
}

void Run::Layer(const std::string& name, double value, const char* unit) {
  if (!options_.trace) return;
  std::printf("%s %s %.17g %s\n", name.c_str(), options_.workload.c_str(),
              value, unit);
  entry_->AddMetric(name, value);
}

void Run::Count(const std::string& name, double value) {
  std::printf("count %s %.17g\n", name.c_str(), value);
}

void Run::Fail(const std::string& why, int64_t n) {
  constexpr int64_t kReported = 5;
  if (failed_ < kReported) {
    std::fprintf(stderr, "FAILED (%s): %s\n", options_.workload.c_str(),
                 why.c_str());
  }
  failed_ += n;
}

int Run::Finish() {
  Layer("bench.trace_dropped", static_cast<double>(dropped_spans_), "count");
  const bool correct = failed_ == 0 && attempted_ > 0;
  entry_->AddMetric("attempted", static_cast<double>(attempted_));
  entry_->AddMetric("failed", static_cast<double>(failed_));
  const std::string path = options_.dir + "/" + options_.workload +
                           (options_.trace ? ".trace" : "") + ".ledger.json";
  const bool wrote = report_.WriteFile(path);
  std::printf("result %s attempted=%lld failed=%lld correct=%d\n",
              options_.workload.c_str(), static_cast<long long>(attempted_),
              static_cast<long long>(failed_), correct ? 1 : 0);
  std::fflush(stdout);
  return correct && wrote ? 0 : 1;
}

TracePhase::TracePhase(Run* run, const char* phase)
    : run_(run->traced() ? run : nullptr) {
  if (run_ == nullptr) return;
  const Options& options = run_->options();
  uv::obs::StartTrace(options.dir + "/" + options.workload + "." + phase +
                      ".trace.json");
}

TracePhase::~TracePhase() {
  if (run_ == nullptr) return;
  run_->AddDroppedSpans(uv::obs::TraceDroppedSpans());
  if (!uv::obs::StopTrace()) run_->Fail("could not write a trace file");
}

double Percentile(std::vector<double> values, double p) {
  return uv::eval::Percentile(std::move(values), p);
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux.
}

std::unique_ptr<DenseCity> MakeDenseCity(double scale, uint64_t seed) {
  auto out = std::make_unique<DenseCity>();
  uv::synth::City city;
  {
    uv::obs::SpanGuard span("bench.generate", uv::obs::SpanLevel::kCoarse);
    city = uv::synth::GenerateCity(uv::synth::ShenzhenLike(scale, kCitySeed));
  }
  {
    uv::obs::SpanGuard span("bench.urg_build", uv::obs::SpanLevel::kCoarse);
    out->urg = uv::urg::BuildUrg(city, uv::urg::UrgOptions{});
  }
  const uv::urg::UrbanRegionGraph& urg = out->urg;
  uv::Rng rng(uv::urg::MixSeed(seed, 0xf01d));
  const auto folds =
      uv::eval::BlockKFold(urg.grid, urg.LabeledIds(), 3, 10, &rng);
  out->train_ids = folds[0].train_ids;
  std::vector<char> in_train(static_cast<size_t>(urg.num_regions()), 0);
  for (int id : out->train_ids) {
    out->train_labels.push_back(urg.labels[id]);
    in_train[id] = 1;
  }
  for (int id = 0; id < urg.num_regions(); ++id) {
    out->all_ids.push_back(id);
    if (in_train[id]) continue;
    out->heldout_ids.push_back(id);
    out->heldout_truth.push_back(urg.is_uv[id]);
  }
  return out;
}

void CheckedAuc(Run* run, const std::vector<float>& scores,
                const std::vector<int>& truth) {
  const double auc = uv::eval::Auc(scores, truth);
  if (!std::isfinite(auc)) run->Fail("held-out AUC is not finite");
  run->Layer("core.auc_heldout", auc, "1");
}

PoolWindow::PoolWindow() {
  uv::BufferPool::ResetPeak();
  start_ = uv::BufferPool::Stats();
}

void PoolWindow::Report(Run* run, double ops) const {
  const uv::MemStatsSnapshot end = uv::BufferPool::Stats();
  const double acquires = static_cast<double>(end.acquires - start_.acquires);
  const double hits = static_cast<double>(end.hits - start_.hits);
  run->Layer("util.pool_hit_ratio", acquires > 0 ? hits / acquires : 0.0,
             "ratio");
  run->Layer("util.heap_allocs",
             static_cast<double>(end.heap_allocs - start_.heap_allocs) / ops,
             "count/op");
  run->Layer("util.pool_peak_mb",
             static_cast<double>(end.pool_bytes_peak) / (1024.0 * 1024.0),
             "MB");
}

}  // namespace uvbench
