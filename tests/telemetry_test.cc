// Production-telemetry suite: rolling SLO windows (obs::WindowedHistogram
// under a FakeClock, including concurrent Record during rotation), the
// sharded registry's sorted-snapshot contract, deterministic trace
// sampling, tracer drop counters, and the Prometheus/JSON exporter
// (render formats and the atomic-rewrite guarantee).

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/clock.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/windowed.h"

namespace uv::obs {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// --- WindowedHistogram -----------------------------------------------------

TEST(WindowedHistogramTest, EmptyWindowReportsZeros) {
  FakeClock clock;
  WindowedHistogram w(/*window_us=*/8000, &clock);
  const WindowedHistogramSnapshot snap = w.Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.sum, 0u);
  EXPECT_EQ(snap.p50, 0.0);
  EXPECT_EQ(snap.p95, 0.0);
  EXPECT_EQ(snap.p99, 0.0);
  EXPECT_EQ(snap.window_us, 8000u);
}

TEST(WindowedHistogramTest, MatchesCumulativeHistogramWithinOneEpoch) {
  FakeClock clock;
  clock.Set(1);  // Stay inside epoch 0's slot.
  WindowedHistogram w(/*window_us=*/8ull * 1000 * 1000, &clock);
  uint64_t counts[Histogram::kNumBuckets] = {};
  uint64_t sum = 0;
  for (uint64_t v : {0ull, 1ull, 3ull, 100ull, 1000ull, 1000ull, 65536ull}) {
    w.Record(v);
    ++counts[Histogram::BucketIndex(v)];
    sum += v;
  }
  const WindowedHistogramSnapshot snap = w.Snapshot();
  EXPECT_EQ(snap.count, 7u);
  EXPECT_EQ(snap.sum, sum);
  EXPECT_EQ(snap.p50, Histogram::PercentileFromCounts(counts, 50.0));
  EXPECT_EQ(snap.p95, Histogram::PercentileFromCounts(counts, 95.0));
  EXPECT_EQ(snap.p99, Histogram::PercentileFromCounts(counts, 99.0));
}

TEST(WindowedHistogramTest, SamplesExpireOnceTheWindowPasses) {
  FakeClock clock;
  // 8 slots x 1000us epochs.
  WindowedHistogram w(/*window_us=*/8000, &clock);
  w.Record(500);
  EXPECT_EQ(w.Snapshot().count, 1u);
  // Still inside the window 7 epochs later...
  clock.Set(7 * 1000);
  EXPECT_EQ(w.Snapshot().count, 1u);
  // ...gone the epoch after that.
  clock.Set(8 * 1000);
  EXPECT_EQ(w.Snapshot().count, 0u);
  EXPECT_EQ(w.Snapshot().p99, 0.0);
}

TEST(WindowedHistogramTest, PartialExpiryKeepsRecentEpochsOnly) {
  FakeClock clock;
  WindowedHistogram w(/*window_us=*/8000, &clock);
  w.Record(64);  // Epoch 0.
  clock.Set(5 * 1000);
  w.Record(128);  // Epoch 5.
  EXPECT_EQ(w.Snapshot().count, 2u);
  clock.Set(9 * 1000);  // Epoch 9: epoch 0 expired, epoch 5 still live.
  const WindowedHistogramSnapshot snap = w.Snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.sum, 128u);
  clock.Set(14 * 1000);  // Epoch 14: everything expired.
  EXPECT_EQ(w.Snapshot().count, 0u);
}

TEST(WindowedHistogramTest, SlotReuseClearsTheOldEpoch) {
  FakeClock clock;
  WindowedHistogram w(/*window_us=*/8000, &clock);
  for (int i = 0; i < 5; ++i) w.Record(10);
  // Epoch 8 maps onto epoch 0's slot; its 5 samples must not leak into
  // the new epoch's counts.
  clock.Set(8 * 1000);
  w.Record(20);
  const WindowedHistogramSnapshot snap = w.Snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.sum, 20u);
}

TEST(WindowedHistogramTest, ResetDropsEverything) {
  FakeClock clock;
  WindowedHistogram w(/*window_us=*/8000, &clock);
  for (int i = 0; i < 10; ++i) w.Record(100);
  ASSERT_EQ(w.Snapshot().count, 10u);
  w.Reset();
  EXPECT_EQ(w.Snapshot().count, 0u);
  // Still usable after Reset.
  w.Record(7);
  EXPECT_EQ(w.Snapshot().count, 1u);
}

// Concurrent writers with the clock walking across epochs but staying
// inside one window: nothing expires, so every sample must land exactly
// once — exact count and sum.
TEST(WindowedHistogramTest, ConcurrentRecordWithinOneWindowIsExact) {
  FakeClock clock;
  WindowedHistogram w(/*window_us=*/8000, &clock);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      for (int i = 0; i < kPerThread; ++i) w.Record(3);
    });
  }
  while (ready.load() < kThreads) {
  }
  // Walk the clock across 7 epoch boundaries (one short of expiry) while
  // the writers run.
  for (int e = 1; e <= 7; ++e) {
    clock.Set(static_cast<uint64_t>(e) * 1000);
    std::this_thread::yield();
  }
  for (auto& t : threads) t.join();
  const WindowedHistogramSnapshot snap = w.Snapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(snap.sum, static_cast<uint64_t>(kThreads) * kPerThread * 3);
}

// The satellite-3 race test: the clock walks far enough (12 epochs on an
// 8-slot ring) that rotations land on slots with writers in flight. Phase
// 1 runs under the moving clock; phase 2 runs with the clock frozen, so
// all of its samples sit in the final epoch and none may expire. The
// invariants catch both failure modes of a rotation race: a half-counted
// sample breaks sum == 3 * count (bucket increment survives the clear but
// the sum increment does not, or vice versa), and a lost phase-2 sample
// drops count below the phase-2 total.
TEST(WindowedHistogramTest, ConcurrentRecordDuringRotationLosesNothing) {
  FakeClock clock;
  WindowedHistogram w(/*window_us=*/8000, &clock);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::atomic<int> ready{0};
  std::atomic<int> phase1_done{0};
  std::atomic<bool> phase2_go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      for (int i = 0; i < kPerThread; ++i) w.Record(3);
      phase1_done.fetch_add(1);
      while (!phase2_go.load()) {
      }
      for (int i = 0; i < kPerThread; ++i) w.Record(3);
    });
  }
  while (ready.load() < kThreads) {
  }
  // Phase 1: cross 12 epoch boundaries — slots 0..4 get rotated while the
  // writers hammer them.
  for (int e = 1; e <= 12; ++e) {
    clock.Set(static_cast<uint64_t>(e) * 1000);
    std::this_thread::yield();
  }
  while (phase1_done.load() < kThreads) {
  }
  // Phase 2: clock frozen at epoch 12; these samples must all survive.
  phase2_go.store(true);
  for (auto& t : threads) t.join();
  const WindowedHistogramSnapshot snap = w.Snapshot();
  const uint64_t phase2 = static_cast<uint64_t>(kThreads) * kPerThread;
  EXPECT_GE(snap.count, phase2);       // No phase-2 sample lost.
  EXPECT_LE(snap.count, 2 * phase2);   // No sample double-counted.
  EXPECT_EQ(snap.sum, 3 * snap.count);  // No sample half-counted.
}

// --- Registry --------------------------------------------------------------

TEST(RegistryWindowedTest, GetWindowedReturnsSameInstanceAndSnapshot) {
  Registry& reg = Registry::Global();
  WindowedHistogram& a = reg.GetWindowed("telemetry.win_a", 8000);
  WindowedHistogram& b = reg.GetWindowed("telemetry.win_a", 999999);
  EXPECT_EQ(&a, &b);  // First call fixes the window.
  EXPECT_EQ(a.window_us(), 8000u);
  a.Record(42);
  const RegistrySnapshot snap = reg.Snapshot();
  bool found = false;
  for (const auto& w : snap.windowed) {
    if (w.name == "telemetry.win_a") {
      found = true;
      EXPECT_GE(w.count, 1u);
      EXPECT_EQ(w.window_us, 8000u);
    }
  }
  EXPECT_TRUE(found);
  reg.ResetAll();
  EXPECT_EQ(a.Snapshot().count, 0u);
}

// Satellite 2: snapshot order is sorted by name, no matter in which order
// (or from which shard) metrics were registered.
TEST(RegistrySortedSnapshotTest, EverySectionIsSortedByName) {
  Registry& reg = Registry::Global();
  // Deliberately register in reverse lexical order, with names chosen to
  // spread over different hash shards.
  for (const char* name : {"telemetry.sort_z", "telemetry.sort_m",
                           "telemetry.sort_b", "telemetry.sort_a"}) {
    reg.GetCounter(name).Inc();
    reg.GetGauge(std::string(name) + ".g").Set(1);
    reg.GetHistogram(std::string(name) + ".h").Record(1);
    reg.GetWindowed(std::string(name) + ".w").Record(1);
  }
  const RegistrySnapshot snap = reg.Snapshot();
  for (size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].first, snap.counters[i].first);
  }
  for (size_t i = 1; i < snap.gauges.size(); ++i) {
    EXPECT_LT(snap.gauges[i - 1].first, snap.gauges[i].first);
  }
  for (size_t i = 1; i < snap.histograms.size(); ++i) {
    EXPECT_LT(snap.histograms[i - 1].name, snap.histograms[i].name);
  }
  for (size_t i = 1; i < snap.windowed.size(); ++i) {
    EXPECT_LT(snap.windowed[i - 1].name, snap.windowed[i].name);
  }
  reg.ResetAll();
}

// --- Trace sampling --------------------------------------------------------

TEST(TraceSamplingTest, RateOneKeepsEverythingRateZeroNothing) {
  const double saved = TraceSampleRate();
  SetTraceSampleRate(1.0);
  for (uint64_t id = 1; id <= 1000; ++id) EXPECT_TRUE(TraceSampleForId(id));
  SetTraceSampleRate(0.0);
  for (uint64_t id = 1; id <= 1000; ++id) EXPECT_FALSE(TraceSampleForId(id));
  SetTraceSampleRate(saved);
}

TEST(TraceSamplingTest, DecisionIsDeterministicPerId) {
  const double saved = TraceSampleRate();
  SetTraceSampleRate(0.37);
  std::vector<bool> first;
  for (uint64_t id = 1; id <= 2000; ++id) {
    first.push_back(TraceSampleForId(id));
  }
  for (uint64_t id = 1; id <= 2000; ++id) {
    EXPECT_EQ(TraceSampleForId(id), first[id - 1]) << "id " << id;
  }
  SetTraceSampleRate(saved);
}

TEST(TraceSamplingTest, KeptFractionTracksTheRate) {
  const double saved = TraceSampleRate();
  SetTraceSampleRate(0.5);
  int kept = 0;
  constexpr int kIds = 20000;
  for (uint64_t id = 1; id <= kIds; ++id) {
    if (TraceSampleForId(id)) ++kept;
  }
  // splitmix64 over sequential ids is uniform enough that 50% +- 5pp holds
  // with enormous margin at n=20000.
  EXPECT_GT(kept, kIds * 45 / 100);
  EXPECT_LT(kept, kIds * 55 / 100);
  SetTraceSampleRate(saved);
}

TEST(TraceSamplingTest, OutOfRangeRatesAreClamped) {
  const double saved = TraceSampleRate();
  SetTraceSampleRate(7.5);
  EXPECT_EQ(TraceSampleRate(), 1.0);
  SetTraceSampleRate(-2.0);
  EXPECT_EQ(TraceSampleRate(), 0.0);
  SetTraceSampleRate(saved);
}

// Satellite 1: buffer-full drops surface as registry counters.
TEST(TraceDropCountersTest, OverflowingTheFineBufferCountsDrops) {
  Registry& reg = Registry::Global();
  reg.ResetAll();
  const std::string path = testing::TempDir() + "/drop_trace.json";
  StartTrace(path);
  // The fine buffer holds 2^16 spans; push past it from one thread.
  for (int i = 0; i < (1 << 16) + 500; ++i) {
    RecordSpan("drop.fill", SpanLevel::kFine, 0, 1);
  }
  EXPECT_GT(TraceDroppedSpans(), 0u);
  EXPECT_TRUE(StopTrace());
  EXPECT_GE(reg.GetCounter("trace.dropped_fine").Value(), 500u);
  EXPECT_EQ(reg.GetCounter("trace.dropped_coarse").Value(), 0u);
  std::remove(path.c_str());
  reg.ResetAll();
}

// --- Exporter --------------------------------------------------------------

TEST(ExporterRenderTest, PrometheusFormatIsWellFormed) {
  RegistrySnapshot snap;
  snap.counters.emplace_back("serve.requests", 17);
  snap.gauges.emplace_back("serve.queue_depth", -3);
  HistogramSnapshot h;
  h.name = "serve.latency_us";
  h.buckets.assign(Histogram::kNumBuckets, 0);
  h.buckets[0] = 2;  // Two zeros.
  h.buckets[5] = 3;  // Three in [16, 32).
  h.count = 5;
  h.sum = 60;
  snap.histograms.push_back(h);
  WindowedHistogramSnapshot w;
  w.name = "serve.latency_us";
  w.window_us = 60ull * 1000 * 1000;
  w.count = 5;
  w.p50 = 16.0;
  w.p95 = 16.0;
  w.p99 = 16.0;
  snap.windowed.push_back(w);

  const std::string prom = RenderPrometheus(snap, /*ts_us=*/123456);
  EXPECT_NE(prom.find("# TYPE uv_serve_requests_total counter\n"
                      "uv_serve_requests_total 17\n"),
            std::string::npos);
  EXPECT_NE(prom.find("uv_serve_queue_depth -3\n"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE uv_serve_latency_us histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("uv_serve_latency_us_bucket{le=\"0\"} 2\n"),
            std::string::npos);
  // Cumulative by le: the [16,32) bucket's upper edge is 31.
  EXPECT_NE(prom.find("uv_serve_latency_us_bucket{le=\"31\"} 5\n"),
            std::string::npos);
  EXPECT_NE(prom.find("uv_serve_latency_us_bucket{le=\"+Inf\"} 5\n"),
            std::string::npos);
  EXPECT_NE(prom.find("uv_serve_latency_us_sum 60\n"), std::string::npos);
  EXPECT_NE(prom.find("uv_serve_latency_us_count 5\n"), std::string::npos);
  EXPECT_NE(
      prom.find(
          "uv_serve_latency_us_window{quantile=\"0.99\",window_s=\"60\"} 16\n"),
      std::string::npos);
  EXPECT_NE(prom.find("uv_export_timestamp_us 123456\n"), std::string::npos);
  EXPECT_EQ(prom.substr(prom.size() - 6), "# EOF\n");
}

TEST(ExporterRenderTest, JsonExportCarriesSchemaAndSections) {
  RegistrySnapshot snap;
  snap.counters.emplace_back("a.count", 1);
  WindowedHistogramSnapshot w;
  w.name = "a.win";
  w.window_us = 1000;
  w.count = 2;
  w.sum = 10;
  w.p50 = 4;
  w.p95 = 8;
  w.p99 = 8;
  snap.windowed.push_back(w);
  const std::string json = RenderJsonExport(snap, /*ts_us=*/99);
  EXPECT_NE(json.find("\"schema\":\"uv-metrics-export-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"ts_us\":99"), std::string::npos);
  EXPECT_NE(json.find("\"a.count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"a.win\":{\"window_us\":1000"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":{}"), std::string::npos);
}

// Registry::ToJson and the JSON export render one snapshot through the same
// section writer: their four sections match byte for byte, and every
// percentile (a bucket lower bound) prints as the integer "%.0f" gave.
TEST(ExporterRenderTest, RegistryJsonAndExportShareSections) {
  Registry& reg = Registry::Global();
  reg.ResetAll();
  reg.GetCounter("same.counter").Inc(7);
  reg.GetGauge("same.gauge").Set(-2);
  Histogram& h = reg.GetHistogram("same.hist");
  h.Record(3);
  h.Record(uint64_t{1} << 40);  // The open last bucket: lower bound 2^26.
  static FakeClock clock;       // The registry keeps the pointer.
  reg.GetWindowed("same.window", 1000, &clock).Record(5000);

  const RegistrySnapshot snap = reg.Snapshot();
  const std::string registry = reg.ToJson();
  const std::string exported = RenderJsonExport(snap, /*ts_us=*/42);
  ASSERT_GE(registry.size(), 2u);
  const std::string sections = registry.substr(1, registry.size() - 2);
  EXPECT_EQ(registry.substr(0, 13), "{\"counters\":{");
  EXPECT_EQ(exported,
            "{\"schema\":\"uv-metrics-export-v1\",\"ts_us\":42," + sections +
                "}");
  EXPECT_NE(sections.find("\"same.counter\":7"), std::string::npos);
  EXPECT_NE(sections.find("\"same.gauge\":-2"), std::string::npos);
  EXPECT_NE(sections.find("\"same.hist\":{\"count\":2,\"sum\":1099511627779,"
                          "\"p50\":67108864,\"p95\":67108864,"
                          "\"p99\":67108864,\"buckets\":[0,0,1,"),
            std::string::npos);
  EXPECT_NE(sections.find("\"same.window\":{\"window_us\":1000,\"count\":1,"
                          "\"sum\":5000,\"p50\":4096,\"p95\":4096,"
                          "\"p99\":4096}"),
            std::string::npos);
  reg.ResetAll();
}

TEST(ExporterTest, ExportNowWritesBothFiles) {
  Registry& reg = Registry::Global();
  reg.GetCounter("telemetry.export_probe").Inc(5);
  const std::string path = testing::TempDir() + "/export_now.prom";
  ASSERT_TRUE(ExportNow(path));
  const std::string prom = ReadFile(path);
  EXPECT_NE(prom.find("uv_telemetry_export_probe_total"), std::string::npos);
  EXPECT_EQ(prom.substr(prom.size() - 6), "# EOF\n");
  const std::string json = ReadFile(path + ".json");
  EXPECT_NE(json.find("uv-metrics-export-v1"), std::string::npos);
  std::remove(path.c_str());
  std::remove((path + ".json").c_str());
  reg.ResetAll();
}

// Satellite-3 exporter half: rewrites are atomic. A reader sampling the
// file while a writer loops ExportNow must always observe a complete
// export (non-empty, "# EOF"-terminated) — never a torn or truncated one.
TEST(ExporterTest, ConcurrentReaderNeverSeesATornFile) {
  Registry& reg = Registry::Global();
  reg.GetCounter("telemetry.atomic_probe").Inc();
  const std::string path = testing::TempDir() + "/atomic.prom";
  ASSERT_TRUE(ExportNow(path));  // Seed so the reader always has a file.
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::atomic<int> reads{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string prom = ReadFile(path);
      if (prom.empty() ||
          prom.size() < 6 || prom.substr(prom.size() - 6) != "# EOF\n") {
        torn.fetch_add(1);
      }
      reads.fetch_add(1);
    }
  });
  for (int i = 0; i < 200; ++i) {
    reg.GetCounter("telemetry.atomic_probe").Inc();
    ASSERT_TRUE(ExportNow(path));
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(torn.load(), 0) << "torn reads out of " << reads.load();
  EXPECT_GT(reads.load(), 0);
  std::remove(path.c_str());
  std::remove((path + ".json").c_str());
  reg.ResetAll();
}

TEST(ExporterTest, BackgroundThreadRewritesAndStopsCleanly) {
  Registry& reg = Registry::Global();
  reg.GetCounter("telemetry.bg_probe").Inc();
  const std::string path = testing::TempDir() + "/bg.prom";
  ExporterOptions opts;
  opts.path = path;
  opts.interval_ms = 10;
  const uint64_t before = ExporterWriteCount();
  ASSERT_TRUE(StartExporter(opts));
  EXPECT_TRUE(ExporterEnabled());
  EXPECT_FALSE(StartExporter(opts));  // Already running.
  // Await at least two cycles (the first fires immediately).
  while (ExporterWriteCount() < before + 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  StopExporter();
  EXPECT_FALSE(ExporterEnabled());
  const uint64_t after = ExporterWriteCount();
  EXPECT_GE(after, before + 3);  // Two cycles + the final flush.
  const std::string prom = ReadFile(path);
  EXPECT_NE(prom.find("uv_telemetry_bg_probe_total"), std::string::npos);
  EXPECT_EQ(prom.substr(prom.size() - 6), "# EOF\n");
  std::remove(path.c_str());
  std::remove((path + ".json").c_str());
  reg.ResetAll();
}

}  // namespace
}  // namespace uv::obs
