// Serving workloads: a detector trained during set-up, saved, loaded back
// and compiled into a grad-free engine, then served through ScoringServer
// under a closed loop of large requests (bulk re-scoring of a city map)
// and an open loop of small Poisson-timed requests (interactive lookups).

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/cmsf_detector.h"
#include "infer/engine.h"
#include "infer/server.h"
#include "obs/metrics.h"
#include "obs/quality.h"
#include "obs/trace.h"
#include "urg/neighbor_sampler.h"
#include "util/rng.h"
#include "workloads.h"

namespace uvbench {
namespace {

using uv::obs::Direction;
using uv::obs::SpanGuard;
using uv::obs::SpanLevel;
using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

struct ServeState {
  std::unique_ptr<DenseCity> city;
  std::unique_ptr<uv::infer::Engine> engine;
  std::vector<float> reference;  // Engine scores of every region.
  uv::obs::QualityBaseline baseline;
  double checkpoint_bytes = 0.0;
};

// Trains a short CMSF run, round-trips it through a checkpoint and builds
// the serving engine from the loaded copy. Checks that the engine
// reproduces the training-path scores bit for bit and that serving the
// training city once reports exactly zero drift. Returns a state without
// an engine when a call fails.
std::unique_ptr<ServeState> MakeServeState(Run* run) {
  auto state = std::make_unique<ServeState>();
  state->city =
      MakeDenseCity(run->Pick(0.02, 0.02, 0.005), run->options().seed);
  const uv::urg::UrbanRegionGraph& urg = state->city->urg;

  uv::core::CmsfConfig config;
  config.num_clusters = 30;
  config.master_epochs = run->Pick(4, 1, 1);
  config.slave_epochs = run->Pick(2, 1, 1);
  config.seed = run->options().seed;
  uv::core::CmsfDetector trained(config);
  {
    SpanGuard span("bench.train", SpanLevel::kCoarse);
    trained.Train(urg, state->city->train_ids, state->city->train_labels);
  }
  const std::string path =
      run->options().dir + "/" + run->options().workload + ".uvck";
  uv::core::CmsfDetector loaded(config);
  uv::Status status;
  {
    SpanGuard span("bench.save", SpanLevel::kCoarse);
    status = trained.SaveModel(urg, path);
  }
  if (status.ok()) {
    SpanGuard span("bench.load", SpanLevel::kCoarse);
    status = loaded.LoadModel(urg, path);
  }
  if (!status.ok()) {
    run->Fail("checkpoint round trip: " + status.ToString());
    return state;
  }
  std::error_code ec;
  state->checkpoint_bytes =
      static_cast<double>(std::filesystem::file_size(path, ec));
  {
    SpanGuard span("bench.engine_build", SpanLevel::kCoarse);
    state->engine =
        uv::infer::MakeCmsfEngine(*loaded.model(), &loaded.frozen(), urg);
  }
  const std::vector<int>& all_ids = state->city->all_ids;
  state->reference = state->engine->Score(all_ids);
  if (trained.Score(urg, all_ids) != state->reference) {
    run->Fail("engine scores differ from the trained detector's");
  }

  state->baseline = loaded.baseline(urg);
  uv::obs::QualityMonitor monitor(state->baseline);
  state->engine->SetQualityMonitor(&monitor);
  state->engine->Score(all_ids);
  state->engine->SetQualityMonitor(nullptr);
  const uv::obs::DriftReport drift = monitor.ComputeDrift();
  if (drift.feature_psi_max != 0.0 || drift.score_psi != 0.0 || drift.alert) {
    run->Fail("serving the training city reported drift (feature PSI " +
              std::to_string(drift.feature_psi_max) + ", score PSI " +
              std::to_string(drift.score_psi) + ")");
  }
  return state;
}

// Three identical set-ups; each must produce the same engine scores.
std::unique_ptr<ServeState> ServeSetups(Run* run) {
  std::vector<float> previous;
  auto state = TimedSetups(run, [&] {
    auto s = MakeServeState(run);
    if (!previous.empty() && s->reference != previous) {
      run->Fail("repeated set-ups built engines with different scores");
    }
    previous = s->reference;
    return s;
  });
  if (state->engine == nullptr) return nullptr;
  run->Layer("io.checkpoint_bytes", state->checkpoint_bytes, "bytes");
  std::vector<float> heldout;
  for (int id : state->city->heldout_ids) {
    heldout.push_back(state->reference[id]);
  }
  CheckedAuc(run, heldout, state->city->heldout_truth);
  return state;
}

// Bucket counts of a registry histogram; a phase's percentiles come from
// the difference of two snapshots, so earlier phases do not leak in.
using Buckets = std::array<uint64_t, uv::obs::Histogram::kNumBuckets>;

Buckets Snapshot(const char* name) {
  const uv::obs::Histogram& h =
      uv::obs::Registry::Global().GetHistogram(name);
  Buckets b{};
  for (int i = 0; i < uv::obs::Histogram::kNumBuckets; ++i) {
    b[i] = h.BucketCount(i);
  }
  return b;
}

double PhasePercentile(const char* name, const Buckets& before, double p) {
  Buckets delta = Snapshot(name);
  for (size_t i = 0; i < delta.size(); ++i) delta[i] -= before[i];
  return uv::obs::Histogram::PercentileFromCounts(delta.data(), p);
}

// The server-side histograms over one measured phase.
class ServerWindow {
 public:
  ServerWindow()
      : queue_wait_(Snapshot("serve.queue_wait_us")),
        batch_size_(Snapshot("serve.batch_size")),
        latency_(Snapshot("serve.latency_us")) {}

  void Report(Run* run, const uv::infer::ServerStats& stats) const {
    run->Layer("infer.queue_wait_us_p50",
               PhasePercentile("serve.queue_wait_us", queue_wait_, 50), "us");
    run->Layer("infer.queue_wait_us_p99",
               PhasePercentile("serve.queue_wait_us", queue_wait_, 99), "us");
    run->Layer("infer.batch_size_p50",
               PhasePercentile("serve.batch_size", batch_size_, 50), "ids");
    run->Layer("infer.server_latency_us_p99",
               PhasePercentile("serve.latency_us", latency_, 99), "us");
    const double batches = static_cast<double>(stats.batches_total);
    run->Layer("infer.requests_per_batch",
               batches > 0 ? stats.requests_total / batches : 0.0,
               "count/batch");
    run->Count("batches", batches);
  }

 private:
  Buckets queue_wait_, batch_size_, latency_;
};

// True when any served score differs from the engine's full-city reference.
bool WrongResponse(const std::vector<float>& reference, const int* ids,
                   const float* scores, int n) {
  for (int i = 0; i < n; ++i) {
    if (scores[i] != reference[ids[i]]) return true;
  }
  return false;
}

// A latency sample stamped with when its request started (or was due),
// in seconds into the measured phase.
struct Sample {
  double at_s = 0.0;
  double latency_ms = 0.0;
};

// The end-to-end metrics of a serving workload. The latency median is
// taken per leg (kLegs equal slices of the phase) and the median over legs
// is reported, so one disturbed stretch of a run moves the result by at
// most one leg's worth.
void ReportServing(Run* run, const std::vector<std::vector<Sample>>& per_thread,
                   int64_t regions, double seconds) {
  constexpr int kLegs = 4;
  std::vector<std::vector<double>> legs(kLegs);
  size_t requests = 0;
  for (const auto& samples : per_thread) {
    for (const Sample& s : samples) {
      const int leg = std::clamp(static_cast<int>(s.at_s / seconds * kLegs), 0,
                                 kLegs - 1);
      legs[leg].push_back(s.latency_ms);
    }
    requests += samples.size();
  }
  std::vector<double> p50;
  for (const auto& leg : legs) p50.push_back(Percentile(leg, 50));
  run->Attempted(static_cast<int64_t>(requests));
  run->Count("ops", static_cast<double>(requests));
  run->Count("regions", static_cast<double>(regions));
  run->Metric("regions_per_s", regions / seconds, "regions/s",
              Direction::kHigherIsBetter);
  run->Metric("latency_ms_p50", Median(p50), "ms", Direction::kLowerIsBetter);
}

// A traced run serves for at most this long, so the dispatcher's span
// buffers cannot fill.
double MeasuredSeconds(const Run& run) {
  constexpr double kTracedSeconds = 4.0;
  return run.traced() ? std::min(run.options().seconds, kTracedSeconds)
                      : run.options().seconds;
}

}  // namespace

void RunServeBulk(Run* run) {
  const auto state = ServeSetups(run);
  if (state == nullptr) return;
  const int n = state->city->urg.num_regions();
  constexpr int kClients = 2;
  const int request_size = std::min(256, n);
  uv::Rng rng(uv::urg::MixSeed(run->options().seed, 0xb01c));
  const int64_t offset = rng.UniformInt(n);

  std::vector<std::vector<Sample>> latency(kClients);
  std::vector<int64_t> wrong(kClients, 0);
  const double seconds = MeasuredSeconds(*run);
  const ServerWindow window;
  uv::infer::ServerStats stats;
  double elapsed = 0.0;
  {
    const TracePhase trace(run, "measure");
    const PoolWindow pool;
    SpanGuard span("bench.measure", SpanLevel::kCoarse);
    // Default options, not ServerOptions::FromEnv: the environment must
    // not change what is measured.
    uv::infer::ScoringServer server(state->engine.get(),
                                    uv::infer::ServerOptions{});
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::vector<std::jthread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        // Client c takes every kClients-th window of request_size
        // consecutive regions, wrapping around the city.
        std::vector<int> ids(request_size);
        std::vector<float> out(request_size);
        for (int64_t r = c; Clock::now() < deadline; r += kClients) {
          for (int i = 0; i < request_size; ++i) {
            ids[i] = static_cast<int>((offset + r * request_size + i) % n);
          }
          const Clock::time_point t0 = Clock::now();
          server.Score(ids.data(), request_size, out.data());
          latency[c].push_back(
              {MsSince(start, t0) / 1e3, MsSince(t0, Clock::now())});
          wrong[c] += WrongResponse(state->reference, ids.data(), out.data(),
                                 request_size);
        }
      });
    }
    for (std::jthread& t : clients) t.join();
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    server.Shutdown();
    stats = server.Stats();
    pool.Report(run, static_cast<double>(stats.requests_total));
  }
  for (int64_t w : wrong) {
    if (w > 0) run->Fail("served scores differ from the engine reference", w);
  }
  window.Report(run, stats);
  ReportServing(run, latency, static_cast<int64_t>(stats.regions_total),
                elapsed);
}

namespace {

// One open-loop request: when it is due (seconds after the start) and
// which ids it asks for (a slice of the shared id pool).
struct Arrival {
  double due_s = 0.0;
  int first = 0;
  int size = 0;
};

}  // namespace

void RunServeInteractive(Run* run) {
  const auto state = ServeSetups(run);
  if (state == nullptr) return;
  const uv::urg::UrbanRegionGraph& urg = state->city->urg;
  const int n = urg.num_regions();
  constexpr int kSenders = 3;
  constexpr int kFeedbackEvery = 100;
  // Requests per second: low enough that three senders rarely all wait on
  // the server at once, so the harness does not add its own queueing.
  const double rate = run->Pick(1000.0, 1000.0, 200.0);
  const double seconds = MeasuredSeconds(*run);

  // Poisson arrivals; 60% single-region lookups, 40% 16-region tiles, ids
  // uniform over the city. All drawn from the seed before serving starts.
  std::vector<Arrival> arrivals;
  std::vector<int> id_pool;
  {
    uv::Rng rng(uv::urg::MixSeed(run->options().seed, 0x1a7e));
    double t = 0.0;
    while (true) {
      t += -std::log(1.0 - rng.Uniform()) / rate;
      if (t >= seconds) break;
      const int size = rng.Uniform() < 0.6 ? 1 : 16;
      arrivals.push_back({t, static_cast<int>(id_pool.size()), size});
      for (int i = 0; i < size; ++i) id_pool.push_back(rng.UniformInt(n));
    }
  }

  uv::obs::QualityMonitor monitor(state->baseline);
  state->engine->SetQualityMonitor(&monitor);
  std::vector<std::vector<Sample>> latency(kSenders);
  std::vector<std::vector<double>> late_ms(kSenders);
  std::vector<int64_t> wrong(kSenders, 0), feedback_rows(kSenders, 0);
  std::atomic<int64_t> rejected_feedback{0};
  const ServerWindow window;
  uv::infer::ServerStats stats;
  double elapsed = 0.0;
  {
    const TracePhase trace(run, "measure");
    const PoolWindow pool;
    SpanGuard span("bench.measure", SpanLevel::kCoarse);
    uv::infer::ScoringServer server(state->engine.get(),
                                    uv::infer::ServerOptions{});
    std::atomic<size_t> next{0};
    const Clock::time_point start = Clock::now();
    std::vector<std::jthread> senders;
    for (int s = 0; s < kSenders; ++s) {
      senders.emplace_back([&, s] {
        std::vector<float> out(16);
        std::vector<int> labels(16);
        for (size_t i = next.fetch_add(1); i < arrivals.size();
             i = next.fetch_add(1)) {
          const Arrival& a = arrivals[i];
          const Clock::time_point due =
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(a.due_s));
          std::this_thread::sleep_until(due);
          // Latency runs from when the request was due, so a stall that
          // delays later sends is charged to them too.
          late_ms[s].push_back(MsSince(due, Clock::now()));
          const int* ids = id_pool.data() + a.first;
          server.Score(ids, a.size, out.data());
          latency[s].push_back({a.due_s, MsSince(due, Clock::now())});
          wrong[s] += WrongResponse(state->reference, ids, out.data(), a.size);
          if (i % kFeedbackEvery == kFeedbackEvery - 1) {
            SpanGuard feedback("bench.feedback", SpanLevel::kCoarse);
            for (int k = 0; k < a.size; ++k) labels[k] = urg.is_uv[ids[k]];
            if (server.Feedback(out.data(), labels.data(), a.size)) {
              feedback_rows[s] += a.size;
            } else {
              rejected_feedback.fetch_add(1);
            }
          }
        }
      });
    }
    for (std::jthread& t : senders) t.join();
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    server.Shutdown();
    stats = server.Stats();
    pool.Report(run, static_cast<double>(stats.requests_total));
  }
  state->engine->SetQualityMonitor(nullptr);

  int64_t labels_sent = 0;
  for (int s = 0; s < kSenders; ++s) {
    if (wrong[s] > 0) {
      run->Fail("served scores differ from the engine reference", wrong[s]);
    }
    labels_sent += feedback_rows[s];
  }
  if (rejected_feedback.load() > 0) {
    run->Fail("Feedback() was rejected", rejected_feedback.load());
  }
  if (monitor.ComputeCalibration().labels !=
      static_cast<uint64_t>(labels_sent)) {
    run->Fail("the quality monitor lost delayed labels");
  }
  std::vector<double> late;
  for (const auto& v : late_ms) late.insert(late.end(), v.begin(), v.end());
  run->Layer("bench.sender_late_ms_p99", Percentile(late, 99), "ms");
  window.Report(run, stats);
  ReportServing(run, latency, static_cast<int64_t>(stats.regions_total),
                elapsed);
}

}  // namespace uvbench
