#include "obs/metrics.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "obs/report.h"
#include "obs/windowed.h"

namespace uv::obs {

namespace internal {

int ThreadShard() {
  static std::atomic<uint32_t> next{0};
  thread_local const int shard = static_cast<int>(
      next.fetch_add(1, std::memory_order_relaxed) % Counter::kShards);
  return shard;
}

}  // namespace internal

double Histogram::PercentileFromCounts(const uint64_t counts[kNumBuckets],
                                       double p) {
  uint64_t total = 0;
  for (int b = 0; b < kNumBuckets; ++b) total += counts[b];
  if (total == 0) return 0.0;
  // Nearest-rank: the smallest bucket whose cumulative count covers
  // ceil(p/100 * total) samples.
  uint64_t rank = static_cast<uint64_t>(p / 100.0 * static_cast<double>(total));
  if (rank >= total) rank = total - 1;
  uint64_t seen = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    seen += counts[b];
    if (seen > rank) return static_cast<double>(BucketLowerBound(b));
  }
  return static_cast<double>(BucketLowerBound(kNumBuckets - 1));
}

double Histogram::Percentile(double p) const {
  uint64_t counts[kNumBuckets];
  for (int b = 0; b < kNumBuckets; ++b) {
    counts[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  return PercentileFromCounts(counts, p);
}

// Name-keyed tables, sharded by name hash: first-lookups from concurrently
// starting subsystems (kernels, server, exporter) take different mutexes.
// Metrics are held by unique_ptr for address stability and the whole Impl
// is leaked with the Registry, so references handed out by Get* stay valid
// through any phase of process teardown. Snapshot/ResetAll walk every
// shard; Snapshot sorts the merged result so output order is independent
// of both shard assignment and registration order.
struct Registry::Impl {
  static constexpr int kShards = 8;

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, std::unique_ptr<Counter>> counters;
    std::unordered_map<std::string, std::unique_ptr<Gauge>> gauges;
    std::unordered_map<std::string, std::unique_ptr<Histogram>> histograms;
    std::unordered_map<std::string, std::unique_ptr<WindowedHistogram>>
        windowed;
  };

  Shard& ShardFor(const std::string& name) {
    return shards[std::hash<std::string>{}(name) % kShards];
  }

  Shard shards[kShards];
};

Registry::Registry() : impl_(new Impl) {}

Registry& Registry::Global() {
  static Registry* registry = new Registry;  // Leaky singleton.
  return *registry;
}

Counter& Registry::GetCounter(const std::string& name) {
  Impl::Shard& shard = impl_->ShardFor(name);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto& slot = shard.counters[name];
  if (!slot) slot.reset(new Counter);
  return *slot;
}

Gauge& Registry::GetGauge(const std::string& name) {
  Impl::Shard& shard = impl_->ShardFor(name);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto& slot = shard.gauges[name];
  if (!slot) slot.reset(new Gauge);
  return *slot;
}

Histogram& Registry::GetHistogram(const std::string& name) {
  Impl::Shard& shard = impl_->ShardFor(name);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto& slot = shard.histograms[name];
  if (!slot) slot.reset(new Histogram);
  return *slot;
}

WindowedHistogram& Registry::GetWindowed(const std::string& name,
                                         uint64_t window_us,
                                         const Clock* clock) {
  Impl::Shard& shard = impl_->ShardFor(name);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto& slot = shard.windowed[name];
  if (!slot) slot.reset(new WindowedHistogram(window_us, clock));
  return *slot;
}

RegistrySnapshot Registry::Snapshot() const {
  RegistrySnapshot snap;
  for (const Impl::Shard& shard : impl_->shards) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [name, c] : shard.counters) {
      snap.counters.emplace_back(name, c->Value());
    }
    for (const auto& [name, g] : shard.gauges) {
      snap.gauges.emplace_back(name, g->Value());
    }
    for (const auto& [name, h] : shard.histograms) {
      HistogramSnapshot hs;
      hs.name = name;
      hs.count = h->Count();
      hs.sum = h->Sum();
      hs.p50 = h->Percentile(50.0);
      hs.p95 = h->Percentile(95.0);
      hs.p99 = h->Percentile(99.0);
      hs.buckets.resize(Histogram::kNumBuckets);
      for (int b = 0; b < Histogram::kNumBuckets; ++b) {
        hs.buckets[b] = h->BucketCount(b);
      }
      snap.histograms.push_back(std::move(hs));
    }
    for (const auto& [name, w] : shard.windowed) {
      WindowedHistogramSnapshot ws = w->Snapshot();
      ws.name = name;
      snap.windowed.push_back(std::move(ws));
    }
  }
  // Deterministic emission order regardless of shard/registration
  // interleaving: exporter diffs and golden tests rely on it.
  std::sort(snap.counters.begin(), snap.counters.end());
  std::sort(snap.gauges.begin(), snap.gauges.end());
  std::sort(snap.histograms.begin(), snap.histograms.end(),
            [](const HistogramSnapshot& a, const HistogramSnapshot& b) {
              return a.name < b.name;
            });
  std::sort(snap.windowed.begin(), snap.windowed.end(),
            [](const WindowedHistogramSnapshot& a,
               const WindowedHistogramSnapshot& b) { return a.name < b.name; });
  return snap;
}

std::string Registry::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  WriteSnapshotJson(Snapshot(), &w);
  w.EndObject();
  return w.Take();
}

void WriteSnapshotJson(const RegistrySnapshot& snap, JsonWriter* w) {
  w->Key("counters").BeginObject();
  for (const auto& [name, value] : snap.counters) w->Key(name).UInt(value);
  w->EndObject();
  w->Key("gauges").BeginObject();
  for (const auto& [name, value] : snap.gauges) w->Key(name).Int(value);
  w->EndObject();
  // Percentiles are bucket lower bounds, whole numbers that the shortest
  // round-trip form prints as integers.
  w->Key("histograms").BeginObject();
  for (const auto& h : snap.histograms) {
    w->Key(h.name).BeginObject();
    w->Key("count").UInt(h.count);
    w->Key("sum").UInt(h.sum);
    w->Key("p50").Double(h.p50);
    w->Key("p95").Double(h.p95);
    w->Key("p99").Double(h.p99);
    w->Key("buckets").BeginArray();
    for (uint64_t b : h.buckets) w->UInt(b);
    w->EndArray();
    w->EndObject();
  }
  w->EndObject();
  w->Key("windowed").BeginObject();
  for (const auto& win : snap.windowed) {
    w->Key(win.name).BeginObject();
    w->Key("window_us").UInt(win.window_us);
    w->Key("count").UInt(win.count);
    w->Key("sum").UInt(win.sum);
    w->Key("p50").Double(win.p50);
    w->Key("p95").Double(win.p95);
    w->Key("p99").Double(win.p99);
    w->EndObject();
  }
  w->EndObject();
}

void Registry::ResetAll() {
  for (Impl::Shard& shard : impl_->shards) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto& [name, c] : shard.counters) c->Reset();
    for (auto& [name, g] : shard.gauges) g->Reset();
    for (auto& [name, h] : shard.histograms) h->Reset();
    for (auto& [name, w] : shard.windowed) w->Reset();
  }
}

}  // namespace uv::obs
