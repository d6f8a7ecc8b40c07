#ifndef UV_OBS_METRICS_H_
#define UV_OBS_METRICS_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

namespace uv::obs {

// ---------------------------------------------------------------------------
// Metric primitives. All three are wait-free on the write path (relaxed
// atomics only), safe to call from any thread at any point of the process
// lifetime, and never deallocated once registered — callers cache the
// reference returned by Registry::Get* in a function-local static and the
// per-update cost is one or two relaxed atomic RMWs.
// ---------------------------------------------------------------------------

namespace internal {
// Stable small id per thread, used to spread counter updates over shards so
// hot counters (BufferPool acquire/release) do not serialize on one cache
// line. Ids are assigned on first use and never reused; only id % kShards
// matters, so wraparound is harmless.
int ThreadShard();
}  // namespace internal

// Monotonic event counter, lock-sharded over cache-line-padded atomics.
class Counter {
 public:
  static constexpr int kShards = 8;

  void Inc(uint64_t delta = 1) {
    shards_[internal::ThreadShard()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }

  // Sum over all shards. Monotone between Resets but not a consistent cut
  // against concurrent writers (like any statistical counter).
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() {
    for (Shard& s : shards_) s.value.store(0, std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  Counter() = default;

  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };
  Shard shards_[kShards];
};

// Last-writer-wins instantaneous value (queue depth, wait time, ...).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  friend class Registry;
  Gauge() = default;
  std::atomic<int64_t> value_{0};
};

// Fixed-bucket power-of-two histogram for non-negative integer samples
// (latencies in microseconds throughout this codebase). Bucket 0 holds the
// value 0; bucket b >= 1 holds [2^(b-1), 2^b); the last bucket is
// open-ended. Fixed buckets keep Record a single fetch_add with no
// allocation and make snapshots trivially mergeable.
class Histogram {
 public:
  static constexpr int kNumBuckets = 28;

  void Record(uint64_t value) {
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  static int BucketIndex(uint64_t value) {
    if (value == 0) return 0;
    const int b = std::bit_width(value);  // floor(log2(v)) + 1 for v >= 1.
    return b < kNumBuckets ? b : kNumBuckets - 1;
  }

  // Inclusive lower edge of bucket b.
  static uint64_t BucketLowerBound(int b) {
    return b == 0 ? 0 : uint64_t{1} << (b - 1);
  }

  uint64_t Count() const {
    uint64_t total = 0;
    for (const auto& b : buckets_) {
      total += b.load(std::memory_order_relaxed);
    }
    return total;
  }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t BucketCount(int b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }

  // Nearest-rank percentile (p in [0, 100]), reported as the lower edge of
  // the bucket holding that rank — deterministic and never an invented
  // value between samples. Returns 0 on an empty histogram.
  double Percentile(double p) const;

  // The same nearest-rank bucket-lower-bound percentile over an externally
  // merged bucket array (kNumBuckets entries) — shared with
  // WindowedHistogram so windowed and cumulative views of one metric use
  // identical percentile math.
  static double PercentileFromCounts(const uint64_t counts[kNumBuckets],
                                     double p);

  void Reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  Histogram() = default;
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> sum_{0};
};

// ---------------------------------------------------------------------------
// Registry: the process-wide name -> metric table, sharded by name hash so
// concurrent first-lookups from different subsystems do not serialize on
// one mutex. Lookup is expected once per call site (cache the reference in
// a static); the returned references stay valid forever (metrics are never
// destroyed, so updates during thread/process teardown are safe).
// ---------------------------------------------------------------------------

class Clock;
class JsonWriter;
class WindowedHistogram;

struct HistogramSnapshot {
  std::string name;
  uint64_t count = 0;
  uint64_t sum = 0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  std::vector<uint64_t> buckets;  // kNumBuckets entries.
};

struct WindowedHistogramSnapshot {
  std::string name;
  uint64_t window_us = 0;
  uint64_t count = 0;
  uint64_t sum = 0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

// Point-in-time copy of every registered metric. Every section is sorted
// by name — snapshot order is a documented contract (exporter output and
// golden tests diff cleanly), independent of registration interleaving or
// which hash shard a name lands in.
struct RegistrySnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<HistogramSnapshot> histograms;
  std::vector<WindowedHistogramSnapshot> windowed;
};

class Registry {
 public:
  // Leaky process-wide instance (safe during static teardown).
  static Registry& Global();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  // Rolling-window companion to GetHistogram. The first call for a name
  // fixes its window (and clock — nullptr means DefaultClock()); later
  // calls return the same instance and ignore the arguments, like every
  // other Get*. Default window: 60 seconds.
  WindowedHistogram& GetWindowed(const std::string& name,
                                 uint64_t window_us = 60ull * 1000 * 1000,
                                 const Clock* clock = nullptr);

  RegistrySnapshot Snapshot() const;

  // Snapshot rendered as one JSON object:
  //   {"counters":{...},"gauges":{...},"histograms":{name:{...}},
  //    "windowed":{name:{...}}}
  // through WriteSnapshotJson, like the JSON export.
  std::string ToJson() const;

  // Zeroes every registered metric (tests/benchmarks).
  void ResetAll();

 private:
  Registry();
  struct Impl;
  Impl* const impl_;
};

// Writes the snapshot's four sections ("counters", "gauges", "histograms",
// "windowed") as keys of the JSON object open in `w`: the one renderer
// behind Registry::ToJson and RenderJsonExport (obs/exporter.h).
void WriteSnapshotJson(const RegistrySnapshot& snap, JsonWriter* w);

}  // namespace uv::obs

#endif  // UV_OBS_METRICS_H_
