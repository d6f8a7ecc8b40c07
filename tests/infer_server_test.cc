#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/registry.h"
#include "eval/splits.h"
#include "infer/engine.h"
#include "infer/server.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/metrics_log.h"
#include "obs/trace.h"
#include "test_helpers.h"

namespace uv::infer {
namespace {

class InferServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    urg_ = new urg::UrbanRegionGraph(uv::testing::TinyUrg());
    Rng rng(3);
    auto folds = eval::BlockKFold(urg_->grid, urg_->LabeledIds(), 3, 8, &rng);
    const eval::Fold& fold = folds[0];
    std::vector<int> train_labels;
    for (int id : fold.train_ids) train_labels.push_back(urg_->labels[id]);

    baselines::TrainOptions options;
    options.epochs = 8;
    core::CmsfConfig config;
    config.hidden_dim = 16;
    config.image_reduce_dim = 16;
    config.num_clusters = 8;
    config.classifier_hidden = 8;
    config.context_dim = 4;
    config.master_epochs = 8;
    config.slave_epochs = 3;
    detector_ = baselines::MakeDetector("CMSF", options, config).release();
    detector_->Train(*urg_, fold.train_ids, train_labels);
    engine_ = baselines::MakeEngine(*detector_, *urg_).release();

    // Ground truth for every region, scored directly (no server).
    all_ids_ = new std::vector<int>();
    for (int id = 0; id < urg_->num_regions(); ++id) all_ids_->push_back(id);
    expected_ = new std::vector<float>(engine_->Score(*all_ids_));
  }

  static urg::UrbanRegionGraph* urg_;
  static eval::Detector* detector_;
  static Engine* engine_;
  static std::vector<int>* all_ids_;
  static std::vector<float>* expected_;
};

urg::UrbanRegionGraph* InferServerTest::urg_ = nullptr;
eval::Detector* InferServerTest::detector_ = nullptr;
Engine* InferServerTest::engine_ = nullptr;
std::vector<int>* InferServerTest::all_ids_ = nullptr;
std::vector<float>* InferServerTest::expected_ = nullptr;

TEST_F(InferServerTest, OptionsFromEnv) {
  unsetenv("UV_SERVE_BATCH");
  ServerOptions defaults = ServerOptions::FromEnv();
  EXPECT_EQ(defaults.max_batch, 64);
  setenv("UV_SERVE_BATCH", "7", 1);
  ServerOptions overridden = ServerOptions::FromEnv();
  EXPECT_EQ(overridden.max_batch, 7);
  setenv("UV_SERVE_BATCH", "bogus", 1);
  EXPECT_EQ(ServerOptions::FromEnv().max_batch, 64);
  unsetenv("UV_SERVE_BATCH");
}

TEST_F(InferServerTest, SingleClientMatchesDirectScoring) {
  ScoringServer server(engine_);
  const std::vector<float> got = server.Score(*all_ids_);
  EXPECT_EQ(got, *expected_);
}

// Results must be bit-identical no matter how the dispatcher happens to
// group requests: exercise extreme batching configurations.
TEST_F(InferServerTest, DeterministicAcrossBatchCompositions) {
  for (const int max_batch : {1, 3, 64, 4096}) {
    ServerOptions options;
    options.max_batch = max_batch;
    ScoringServer server(engine_, options);
    EXPECT_EQ(server.Score(*all_ids_), *expected_)
        << "max_batch=" << max_batch;
  }
}

TEST_F(InferServerTest, ConcurrentClientsAllGetExactScores) {
  ServerOptions options;
  options.max_batch = 16;  // Force plenty of mixed-request batches.
  ScoringServer server(engine_, options);

  constexpr int kThreads = 8;
  constexpr int kRounds = 20;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([t, &server, &mismatches] {
      const int n = urg_->num_regions();
      for (int round = 0; round < kRounds; ++round) {
        // Each client scores a different stride of the id space.
        std::vector<int> ids;
        for (int id = (t + round) % 5; id < n; id += 5) ids.push_back(id);
        const std::vector<float> got = server.Score(ids);
        for (size_t i = 0; i < ids.size(); ++i) {
          if (got[i] != (*expected_)[ids[i]]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(InferServerTest, RecordsServingHistograms) {
  obs::Registry::Global().ResetAll();
  {
    ScoringServer server(engine_);
    server.Score(*all_ids_);
    server.Score(*all_ids_);
  }
  const obs::RegistrySnapshot snapshot = obs::Registry::Global().Snapshot();
  bool saw_queue = false, saw_batch = false, saw_latency = false;
  for (const auto& h : snapshot.histograms) {
    if (h.name == "serve.queue_wait_us") saw_queue = h.count >= 2;
    if (h.name == "serve.batch_size") {
      saw_batch = h.count >= 2;
      // Both calls scored every region across one or more batches.
      EXPECT_EQ(h.sum, static_cast<uint64_t>(2 * urg_->num_regions()));
    }
    if (h.name == "serve.latency_us") saw_latency = h.count >= 2;
  }
  EXPECT_TRUE(saw_queue);
  EXPECT_TRUE(saw_batch);
  EXPECT_TRUE(saw_latency);
}

TEST_F(InferServerTest, ShutdownDrainsAndIsIdempotent) {
  ScoringServer server(engine_);
  EXPECT_EQ(server.Score(*all_ids_), *expected_);
  server.Shutdown();
  server.Shutdown();  // Second call is a no-op.
}

TEST_F(InferServerTest, EmptyRequestIsANoop) {
  ScoringServer server(engine_);
  std::vector<float> out = server.Score(std::vector<int>{});
  EXPECT_TRUE(out.empty());
}

// --- Request lifecycle telemetry -------------------------------------------

TEST_F(InferServerTest, RequestIdsAndEventsAreRecorded) {
  obs::Registry::Global().ResetAll();
  ServerOptions options;
  options.event_capacity = 64;
  ScoringServer server(engine_, options);
  const int n = urg_->num_regions();
  float out[8];
  int ids[8];
  constexpr int kRequests = 10;
  for (int r = 0; r < kRequests; ++r) {
    for (int i = 0; i < 8; ++i) ids[i] = (r * 8 + i) % n;
    server.Score(ids, 8, out);
  }
  const std::vector<RequestEvent> events = server.RecentEvents();
  ASSERT_EQ(events.size(), static_cast<size_t>(kRequests));
  for (size_t i = 0; i < events.size(); ++i) {
    // One synchronous client: ids are assigned in call order, from 1.
    EXPECT_EQ(events[i].id, i + 1);
    EXPECT_GE(events[i].batch, 1u);
    EXPECT_EQ(events[i].n, 8);
    EXPECT_GE(events[i].latency_us, events[i].queue_wait_us);
  }
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.requests_total, static_cast<uint64_t>(kRequests));
  EXPECT_EQ(stats.regions_total, static_cast<uint64_t>(kRequests) * 8);
  EXPECT_GE(stats.batches_total, 1u);
}

TEST_F(InferServerTest, EventRingKeepsOnlyTheMostRecent) {
  ServerOptions options;
  options.event_capacity = 4;
  ScoringServer server(engine_, options);
  int id = 0;
  float out;
  for (int r = 0; r < 10; ++r) server.Score(&id, 1, &out);
  const std::vector<RequestEvent> events = server.RecentEvents();
  ASSERT_EQ(events.size(), 4u);
  // Oldest first, and only the last four requests survive.
  EXPECT_EQ(events[0].id, 7u);
  EXPECT_EQ(events[3].id, 10u);
}

// The ISSUE acceptance check: Stats()'s rolling-window p99 must equal a
// post-hoc percentile computed from the recorded per-request events. Both
// sides use the same power-of-two buckets and nearest-rank convention, so
// over an un-rotated window the match is exact, not approximate.
TEST_F(InferServerTest, StatsWindowPercentilesMatchPostHocEventMath) {
  obs::Registry::Global().ResetAll();
  ServerOptions options;
  options.event_capacity = 4096;
  ScoringServer server(engine_, options);
  const int n = urg_->num_regions();
  for (int pass = 0; pass < 3; ++pass) {
    int ids[32];
    float out[32];
    int filled = 0;
    for (int id = 0; id < n; ++id) {
      ids[filled++] = id;
      if (filled == 32) {
        server.Score(ids, filled, out);
        filled = 0;
      }
    }
    if (filled > 0) server.Score(ids, filled, out);
  }
  const std::vector<RequestEvent> events = server.RecentEvents();
  const ServerStats stats = server.Stats();
  ASSERT_EQ(stats.window_count, events.size());

  uint64_t latency_counts[obs::Histogram::kNumBuckets] = {};
  uint64_t wait_counts[obs::Histogram::kNumBuckets] = {};
  for (const RequestEvent& e : events) {
    ++latency_counts[obs::Histogram::BucketIndex(e.latency_us)];
    ++wait_counts[obs::Histogram::BucketIndex(e.queue_wait_us)];
  }
  EXPECT_EQ(stats.latency_p50_us,
            obs::Histogram::PercentileFromCounts(latency_counts, 50.0));
  EXPECT_EQ(stats.latency_p95_us,
            obs::Histogram::PercentileFromCounts(latency_counts, 95.0));
  EXPECT_EQ(stats.latency_p99_us,
            obs::Histogram::PercentileFromCounts(latency_counts, 99.0));
  EXPECT_EQ(stats.queue_wait_p99_us,
            obs::Histogram::PercentileFromCounts(wait_counts, 99.0));
  // And the windowed view agrees with the cumulative histogram, which saw
  // exactly the same samples since ResetAll.
  EXPECT_EQ(stats.latency_p99_us,
            obs::Registry::Global().GetHistogram("serve.latency_us")
                .Percentile(99.0));
}

TEST_F(InferServerTest, LifecycleGaugesDrainToZero) {
  obs::Registry::Global().ResetAll();
  {
    ScoringServer server(engine_);
    server.Score(*all_ids_);
    const ServerStats busy = server.Stats();
    EXPECT_GE(busy.requests_total, 1u);
  }
  obs::Registry& reg = obs::Registry::Global();
  EXPECT_EQ(reg.GetGauge("serve.queue_depth").Value(), 0);
  EXPECT_EQ(reg.GetGauge("serve.inflight").Value(), 0);
}

TEST_F(InferServerTest, EveryRequestEmitsAJsonlRecord) {
  const std::string path =
      ::testing::TempDir() + "/serve_requests.jsonl";
  obs::OpenMetricsLog(path);
  constexpr int kRequests = 6;
  {
    ScoringServer server(engine_);
    int id = 1;
    float out;
    for (int r = 0; r < kRequests; ++r) server.Score(&id, 1, &out);
  }
  obs::CloseMetricsLog();
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  int requests = 0;
  while (std::getline(in, line)) {
    if (line.find("\"kind\":\"request\"") == std::string::npos) continue;
    ++requests;
    EXPECT_NE(line.find("\"req\":"), std::string::npos);
    EXPECT_NE(line.find("\"batch\":"), std::string::npos);
    EXPECT_NE(line.find("\"queue_wait_us\":"), std::string::npos);
    EXPECT_NE(line.find("\"latency_us\":"), std::string::npos);
  }
  EXPECT_EQ(requests, kRequests);
  std::remove(path.c_str());
}

TEST_F(InferServerTest, SampledSpansCarryRequestAndBatchIds) {
  const double saved_rate = obs::TraceSampleRate();
  const std::string path = ::testing::TempDir() + "/serve_trace.json";

  obs::SetTraceSampleRate(1.0);
  obs::StartTrace(path);
  {
    ScoringServer server(engine_);
    server.Score(*all_ids_);
  }  // Shutdown before StopTrace: all spans recorded.
  ASSERT_TRUE(obs::StopTrace());
  std::string trace;
  {
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    trace = ss.str();
  }
  EXPECT_NE(trace.find("\"name\":\"serve.dispatch\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"serve.score\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"serve.enqueue\""), std::string::npos);
  EXPECT_NE(trace.find("\"req\":"), std::string::npos);
  EXPECT_NE(trace.find("\"batch\":"), std::string::npos);

  // Rate 0: batch spans remain, per-request spans vanish.
  obs::SetTraceSampleRate(0.0);
  obs::StartTrace(path);
  {
    ScoringServer server(engine_);
    server.Score(*all_ids_);
  }
  ASSERT_TRUE(obs::StopTrace());
  {
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    trace = ss.str();
  }
  EXPECT_NE(trace.find("\"name\":\"serve.dispatch\""), std::string::npos);
  EXPECT_EQ(trace.find("\"name\":\"serve.enqueue\""), std::string::npos);

  obs::SetTraceSampleRate(saved_rate);
  std::remove(path.c_str());
}

// --- Dispatch on arrival -----------------------------------------------------

// The dispatcher scores a lone request as soon as it is queued: it never
// waits for company, so a frozen clock cannot hold the request back and
// the request records no queue wait.
TEST_F(InferServerTest, LoneRequestIsNotHeld) {
  obs::Registry::Global().ResetAll();
  obs::FakeClock clock;
  clock.Set(1);
  ServerOptions options;
  options.clock = &clock;
  ScoringServer server(engine_, options);
  int id = 3;
  float out = 0.0f;
  std::future<void> scored =
      std::async(std::launch::async, [&] { server.Score(&id, 1, &out); });
  const bool done =
      scored.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  // A dispatcher that waits for the clock to age the request would never
  // return: release it so the failure is reported instead of hanging.
  if (!done) clock.Advance(60ull * 1000 * 1000);
  scored.get();
  ASSERT_TRUE(done) << "a lone request waited for a batch to fill";
  EXPECT_EQ(out, (*expected_)[id]);
  const obs::Histogram& wait =
      obs::Registry::Global().GetHistogram("serve.queue_wait_us");
  EXPECT_EQ(wait.Count(), 1u);
  EXPECT_EQ(wait.Sum(), 0u);
  server.Shutdown();
  obs::Registry::Global().ResetAll();
}

// Forwards to a real engine, but holds its first call until `queued`
// region ids wait in the server's queue.
class HoldFirstCallEngine final : public Engine {
 public:
  HoldFirstCallEngine(Engine* inner, int64_t queued)
      : inner_(inner), queued_(queued) {}

  void set_server(const ScoringServer* server) { server_ = server; }
  int num_regions() const override { return inner_->num_regions(); }

  void ScoreInto(const int* ids, int n, float* out) override {
    if (calls_++ == 0) {
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (server_->Stats().queue_depth < queued_ &&
             std::chrono::steady_clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    inner_->ScoreInto(ids, n, out);
  }

 private:
  Engine* const inner_;
  const int64_t queued_;
  const ScoringServer* server_ = nullptr;
  int calls_ = 0;
};

// Requests that arrive while the engine runs are scored together in the
// next engine call, not one by one.
TEST_F(InferServerTest, RequestsQueuedDuringABusyEngineShareOneBatch) {
  constexpr int kQueued = 12;
  HoldFirstCallEngine engine(engine_, kQueued);
  ServerOptions options;
  options.event_capacity = 64;
  ScoringServer server(&engine, options);
  engine.set_server(&server);

  const int n = urg_->num_regions();
  std::vector<float> got(kQueued + 1, -1.0f);
  std::vector<int> ids(kQueued + 1);
  for (int i = 0; i <= kQueued; ++i) ids[i] = (7 * i + 1) % n;
  std::vector<std::thread> clients;
  clients.emplace_back([&] { server.Score(&ids[0], 1, &got[0]); });
  // Only the first request is in flight until the engine has it.
  while (server.Stats().batches_total == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (int i = 1; i <= kQueued; ++i) {
    clients.emplace_back([&, i] { server.Score(&ids[i], 1, &got[i]); });
  }
  for (auto& c : clients) c.join();

  EXPECT_EQ(server.Stats().batches_total, 2u);
  const std::vector<RequestEvent> events = server.RecentEvents();
  ASSERT_EQ(events.size(), static_cast<size_t>(kQueued + 1));
  EXPECT_EQ(events[0].batch, 1u);
  for (int i = 1; i <= kQueued; ++i) EXPECT_EQ(events[i].batch, 2u);
  for (int i = 0; i <= kQueued; ++i) {
    EXPECT_EQ(got[i], (*expected_)[ids[i]]) << "request " << i;
  }
}

TEST_F(InferServerTest, FakeClockDrivesWindowExpiry) {
  obs::Registry::Global().ResetAll();
  obs::FakeClock clock;
  clock.Set(1);
  ServerOptions options;
  options.clock = &clock;
  options.slo_window_s = 8;  // 1-second epochs.
  ScoringServer server(engine_, options);
  int id = 0;
  float out;
  server.Score(&id, 1, &out);
  EXPECT_EQ(server.Stats().window_count, 1u);
  // Jump past the whole window: the sample rolls out of the SLO view but
  // stays in the cumulative totals.
  clock.Set(10ull * 1000 * 1000);
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.window_count, 0u);
  EXPECT_EQ(stats.latency_p99_us, 0.0);
  EXPECT_EQ(stats.requests_total, 1u);
  server.Shutdown();
  obs::Registry::Global().ResetAll();
}

}  // namespace
}  // namespace uv::infer
