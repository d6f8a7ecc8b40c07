#include "obs/exporter.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "obs/report.h"
#include "obs/trace.h"

namespace uv::obs {
namespace {

// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. Registry names use
// dotted lowercase ("serve.latency_us"), so mapping every other character
// to '_' is collision-free in practice and keeps the uv_ prefix grouping.
std::string PromName(const std::string& name) {
  std::string out = "uv_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

void Append(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out += buf;
}

// Writes `content` to `path` atomically: tmp file in the same directory,
// then rename over the target, so concurrent readers never see a torn or
// truncated file.
bool AtomicWrite(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  const bool wrote =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

struct ExporterState {
  std::mutex mu;
  std::condition_variable cv;
  std::thread worker;
  bool running = false;
  bool stop = false;
  ExporterOptions opts;
  std::atomic<uint64_t> writes{0};
};

ExporterState& State() {
  static ExporterState* state = new ExporterState;  // Leaky.
  return *state;
}

void ExporterLoop() {
  ExporterState& state = State();
  std::unique_lock<std::mutex> lock(state.mu);
  const ExporterOptions opts = state.opts;
  while (!state.stop) {
    lock.unlock();
    if (ExportNow(opts.path)) {
      state.writes.fetch_add(1, std::memory_order_release);
    }
    lock.lock();
    state.cv.wait_for(lock, std::chrono::milliseconds(opts.interval_ms),
                      [&state] { return state.stop; });
  }
}

}  // namespace

ExporterOptions ExporterOptions::FromEnv() {
  ExporterOptions opts;
  if (const char* path = std::getenv("UV_EXPORT")) opts.path = path;
  if (const char* ms = std::getenv("UV_EXPORT_INTERVAL_MS")) {
    if (ms[0] != '\0') opts.interval_ms = std::atoi(ms);
  }
  if (opts.interval_ms < 10) opts.interval_ms = 10;
  return opts;
}

bool StartExporter(const ExporterOptions& opts) {
  if (opts.path.empty()) return false;
  ExporterState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.running) return false;
  state.opts = opts;
  if (state.opts.interval_ms < 10) state.opts.interval_ms = 10;
  state.stop = false;
  state.running = true;
  state.worker = std::thread(ExporterLoop);
  return true;
}

void StopExporter() {
  ExporterState& state = State();
  {
    std::lock_guard<std::mutex> lock(state.mu);
    if (!state.running) return;
    state.stop = true;
  }
  state.cv.notify_all();
  state.worker.join();
  std::string path;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    state.running = false;
    path = state.opts.path;
  }
  // Final export so the files reflect end-of-process totals even when the
  // last interval did not elapse.
  if (ExportNow(path)) {
    state.writes.fetch_add(1, std::memory_order_release);
  }
}

bool ExporterEnabled() {
  ExporterState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.running;
}

uint64_t ExporterWriteCount() {
  return State().writes.load(std::memory_order_acquire);
}

std::string RenderPrometheus(const RegistrySnapshot& snap, uint64_t ts_us) {
  std::string out;
  out.reserve(4096);
  for (const auto& [name, value] : snap.counters) {
    const std::string prom = PromName(name) + "_total";
    Append(out, "# TYPE %s counter\n", prom.c_str());
    Append(out, "%s %llu\n", prom.c_str(),
           static_cast<unsigned long long>(value));
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string prom = PromName(name);
    Append(out, "# TYPE %s gauge\n", prom.c_str());
    Append(out, "%s %lld\n", prom.c_str(), static_cast<long long>(value));
  }
  for (const auto& h : snap.histograms) {
    const std::string prom = PromName(h.name);
    Append(out, "# TYPE %s histogram\n", prom.c_str());
    // Bucket b of the power-of-two histogram covers [2^(b-1), 2^b) (bucket
    // 0 covers {0}), so its inclusive upper edge — Prometheus `le` — is
    // 2^b - 1. The last bucket is open-ended and only contributes to +Inf.
    uint64_t cumulative = 0;
    for (int b = 0; b + 1 < Histogram::kNumBuckets; ++b) {
      cumulative += h.buckets[b];
      const unsigned long long le =
          b == 0 ? 0ull : (uint64_t{1} << b) - 1;
      Append(out, "%s_bucket{le=\"%llu\"} %llu\n", prom.c_str(), le,
             static_cast<unsigned long long>(cumulative));
    }
    Append(out, "%s_bucket{le=\"+Inf\"} %llu\n", prom.c_str(),
           static_cast<unsigned long long>(h.count));
    Append(out, "%s_sum %llu\n", prom.c_str(),
           static_cast<unsigned long long>(h.sum));
    Append(out, "%s_count %llu\n", prom.c_str(),
           static_cast<unsigned long long>(h.count));
  }
  for (const auto& w : snap.windowed) {
    // Rolling-window percentiles are point-in-time values, so they export
    // as a gauge family (suffix _window keeps them distinct from the
    // cumulative histogram of the same registry name).
    const std::string prom = PromName(w.name) + "_window";
    const double window_s = static_cast<double>(w.window_us) / 1e6;
    Append(out, "# TYPE %s gauge\n", prom.c_str());
    Append(out, "%s{quantile=\"0.5\",window_s=\"%g\"} %.0f\n", prom.c_str(),
           window_s, w.p50);
    Append(out, "%s{quantile=\"0.95\",window_s=\"%g\"} %.0f\n", prom.c_str(),
           window_s, w.p95);
    Append(out, "%s{quantile=\"0.99\",window_s=\"%g\"} %.0f\n", prom.c_str(),
           window_s, w.p99);
    Append(out, "# TYPE %s_count gauge\n", prom.c_str());
    Append(out, "%s_count{window_s=\"%g\"} %llu\n", prom.c_str(), window_s,
           static_cast<unsigned long long>(w.count));
  }
  Append(out, "# TYPE uv_export_timestamp_us gauge\n");
  Append(out, "uv_export_timestamp_us %llu\n",
         static_cast<unsigned long long>(ts_us));
  out += "# EOF\n";
  return out;
}

std::string RenderJsonExport(const RegistrySnapshot& snap, uint64_t ts_us) {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").String("uv-metrics-export-v1");
  w.Key("ts_us").UInt(ts_us);
  WriteSnapshotJson(snap, &w);
  w.EndObject();
  return w.Take();
}

bool ExportNow(const std::string& path) {
  if (path.empty()) return false;
  const RegistrySnapshot snap = Registry::Global().Snapshot();
  const uint64_t ts_us = NowMicros();
  const bool prom_ok = AtomicWrite(path, RenderPrometheus(snap, ts_us));
  const bool json_ok =
      AtomicWrite(path + ".json", RenderJsonExport(snap, ts_us));
  return prom_ok && json_ok;
}

}  // namespace uv::obs
