// bench_suite --alloc: counts heap allocations by interposing the global
// operator new/delete for the whole bench_suite binary. Counting is off
// except inside CountAllocs, where it covers every thread. Two gates:
//   - a CMSF training step (one master epoch) with the BufferPool on must
//     make at least 10x fewer heap allocations than one with it off
//     (UV_POOL=0 semantics), and at most kMaxPoolOnAllocsPerStep; at
//     UV_BENCH_SCALE=0.01 the rest of a pool-on Train call (the freeze
//     sweep and the slave stage, which grow with the city) at most
//     kMaxPoolOnFixedAllocs;
//   - after a warmup pass that sizes the engine's pooled workspaces, a
//     steady-state request to the pool-on detector's engine must make at
//     most 5 heap allocations, at every probed request size.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "baselines/registry.h"
#include "infer/engine.h"
#include "legs.h"
#include "util/buffer_pool.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_alloc_bytes{0};

void CountAlloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  }
}

void* AllocOrThrow(std::size_t n) {
  CountAlloc(n);
  if (void* p = std::malloc(n > 0 ? n : 1)) return p;
  throw std::bad_alloc();
}

void* AllocAligned(std::size_t n, std::size_t align) {
  CountAlloc(n);
  void* p = nullptr;
  if (posix_memalign(&p, align, n > 0 ? n : align) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

struct AllocCount {
  uint64_t allocs;
  uint64_t bytes;
};

// Heap allocations (and their bytes) that fn() makes, on any thread.
template <typename Fn>
AllocCount CountAllocs(Fn&& fn) {
  g_allocs.store(0);
  g_alloc_bytes.store(0);
  g_counting.store(true);
  fn();
  g_counting.store(false);
  return {g_allocs.load(), g_alloc_bytes.load()};
}

}  // namespace

void* operator new(std::size_t n) { return AllocOrThrow(n); }
void* operator new[](std::size_t n) { return AllocOrThrow(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return AllocAligned(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return AllocAligned(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  CountAlloc(n);
  return std::malloc(n > 0 ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  CountAlloc(n);
  return std::malloc(n > 0 ? n : 1);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace uv::bench {

obs::Report RunAllocLeg(BenchConfig bench, bool* passed) {
  constexpr double kMinReduction = 10.0;
  // Absolute pool-on bounds. A step measured 8.1 allocations at 8 epochs
  // and 8.5 at 2 (8.0-8.2 at scales 0.005-0.02); the ratio alone would let
  // it grow to about 80. The rest of a Train call measured 2,518 and 2,516
  // at UV_BENCH_SCALE=0.01, the ctests' scale, and is gated only there:
  // it read 2,300 at 0.005 and 4,127 at 0.02.
  constexpr double kMaxPoolOnAllocsPerStep = 10.0;
  constexpr double kMaxPoolOnFixedAllocs = 2600.0;
  constexpr double kFixedAllocsScale = 0.01;
  constexpr double kMaxAllocsPerRequest = 5.0;
  bench.epochs = std::min(bench.epochs, 10);
  PrintBenchHeader("Micro: heap allocations per CMSF training step", bench);
  obs::Report report = MakeReport("alloc", bench);

  const urg::UrbanRegionGraph urg = BuildCityUrg("Fuzhou", bench);
  const TrainSet train = Fold0TrainSet(urg, bench.seed);
  // A Train call runs the master epochs, then the freeze sweep and the
  // slave stage, whose cost does not scale with the master epochs. A step
  // is one master epoch (CMSF's whole-city batch here): what a call with
  // 2E master epochs makes beyond a call with E, over E.
  BenchConfig doubled = bench;
  doubled.epochs = 2 * bench.epochs;
  const eval::DetectorFactory factory = MakeFactory("CMSF", "Fuzhou", bench);
  const eval::DetectorFactory doubled_factory =
      MakeFactory("CMSF", "Fuzhou", doubled);

  // Each mode trains once first to warm the pool and the per-thread kernel
  // workspaces, so both counted calls are steady state. The last detector
  // outlives its count, so the pool-on one can be served; the pool-off one
  // is freed before the pool comes on.
  struct Step {
    double allocs_per_step;
    double bytes_per_step;
    double pool_acquires;
    double pool_hits;
    double pool_heap_allocs;
    double fixed_allocs;  // The E-epoch call's allocations less E steps.
  };
  struct Count {
    AllocCount heap;
    MemStatsSnapshot pool;
  };
  std::unique_ptr<eval::Detector> detector;
  auto count_train = [&](const eval::DetectorFactory& make) {
    Count count;
    BufferPool::ResetStats();
    count.heap = CountAllocs([&] {
      detector = make(bench.seed);
      detector->Train(urg, train.ids, train.labels);
    });
    count.pool = BufferPool::Stats();
    return count;
  };
  auto measure = [&](bool pool_on) {
    detector.reset();
    BufferPool::SetEnabled(pool_on);
    factory(bench.seed)->Train(urg, train.ids, train.labels);
    const Count once = count_train(factory);
    detector.reset();
    const Count twice = count_train(doubled_factory);
    const auto per_step = [&](uint64_t e_epochs, uint64_t two_e_epochs) {
      return (static_cast<double>(two_e_epochs) -
              static_cast<double>(e_epochs)) /
             bench.epochs;
    };
    const double allocs = per_step(once.heap.allocs, twice.heap.allocs);
    return Step{allocs,
                per_step(once.heap.bytes, twice.heap.bytes),
                per_step(once.pool.acquires, twice.pool.acquires),
                per_step(once.pool.hits, twice.pool.hits),
                per_step(once.pool.heap_allocs, twice.pool.heap_allocs),
                static_cast<double>(once.heap.allocs) - bench.epochs * allocs};
  };
  const Step off = measure(false);
  const Step on = measure(true);

  const double ratio =
      on.allocs_per_step > 0.0 ? off.allocs_per_step / on.allocs_per_step
                               : 0.0;
  for (const auto& [name, step] : {std::pair{"pool_off", &off},
                                   std::pair{"pool_on", &on}}) {
    auto& entry = report.Bench(name);
    entry.AddMetric("allocs_per_step", step->allocs_per_step,
                    obs::Direction::kLowerIsBetter);
    entry.AddMetric("bytes_per_step", step->bytes_per_step,
                    obs::Direction::kLowerIsBetter);
    entry.AddMetric("pool_acquires", step->pool_acquires);
    entry.AddMetric("pool_hits", step->pool_hits);
    entry.AddMetric("pool_heap_allocs", step->pool_heap_allocs);
    entry.AddMetric("fixed_allocs_per_train", step->fixed_allocs,
                    obs::Direction::kLowerIsBetter);
  }
  report.Bench("pool_on").AddMetric("reduction", ratio,
                                    obs::Direction::kHigherIsBetter);
  std::printf("pool off: %.1f heap allocs/step (%.1f KB/step)\n",
              off.allocs_per_step, off.bytes_per_step / 1024.0);
  std::printf("pool on : %.1f heap allocs/step (%.1f KB/step)\n",
              on.allocs_per_step, on.bytes_per_step / 1024.0);
  std::printf("reduction: %.1fx (target >= 10x)\n", ratio);
  std::printf("pool on : %.1f heap allocs per Train call outside the steps\n",
              on.fixed_allocs);
  std::printf(
      "pool-on acquire hit rate: %.1f/%.1f per step (%.1f%%), heap allocs "
      "%.1f per step\n",
      on.pool_hits, on.pool_acquires,
      on.pool_acquires > 0.0 ? 100.0 * on.pool_hits / on.pool_acquires : 0.0,
      on.pool_heap_allocs);
  const bool ratio_pass = ratio >= kMinReduction;
  const bool step_bound_pass = on.allocs_per_step <= kMaxPoolOnAllocsPerStep;
  const bool fixed_gated = std::abs(bench.scale - kFixedAllocsScale) < 1e-9;
  const bool fixed_bound_pass =
      !fixed_gated || on.fixed_allocs <= kMaxPoolOnFixedAllocs;
  const bool steps_pass = ratio_pass && step_bound_pass && fixed_bound_pass;
  if (steps_pass && fixed_gated) {
    std::printf("PASS (pool on <= %.0f allocs/step, <= %.0f per Train call "
                "outside the steps)\n",
                kMaxPoolOnAllocsPerStep, kMaxPoolOnFixedAllocs);
  } else if (steps_pass) {
    std::printf("PASS (pool on <= %.0f allocs/step; the rest of a Train "
                "call is gated only at UV_BENCH_SCALE=%g)\n",
                kMaxPoolOnAllocsPerStep, kFixedAllocsScale);
  }
  if (!ratio_pass) {
    std::fprintf(stderr,
                 "FAIL: pooled hot path must cut heap allocations per step "
                 "by >= 10x (got %.1fx)\n",
                 ratio);
  }
  if (!step_bound_pass) {
    std::fprintf(stderr,
                 "FAIL: pool-on training step must stay <= %.0f heap "
                 "allocs/step (got %.1f)\n",
                 kMaxPoolOnAllocsPerStep, on.allocs_per_step);
  }
  if (!fixed_bound_pass) {
    std::fprintf(stderr,
                 "FAIL: pool-on Train call must stay <= %.0f heap allocs "
                 "outside the steps (got %.1f)\n",
                 kMaxPoolOnFixedAllocs, on.fixed_allocs);
  }

  std::printf(
      "\n=== Micro: heap allocations per grad-free inference request ===\n");
  const std::unique_ptr<infer::Engine> engine =
      baselines::MakeEngine(*detector, urg);
  const int n = engine->num_regions();
  constexpr int kRequests = 512;
  bool requests_pass = true;
  for (const int request_size : {1, 8, 64}) {
    std::vector<int> ids(request_size);
    std::vector<float> out(request_size);
    auto run_requests = [&] {
      for (int r = 0; r < kRequests; ++r) {
        for (int i = 0; i < request_size; ++i) {
          ids[i] = (r * request_size + i) % n;
        }
        engine->ScoreInto(ids.data(), request_size, out.data());
      }
    };
    // Warmup pass: sizes the pooled workspaces and any lazily-created
    // per-thread kernel scratch for this request shape.
    run_requests();
    const AllocCount count = CountAllocs(run_requests);
    const double allocs_per_request =
        static_cast<double>(count.allocs) / kRequests;
    const double bytes_per_request =
        static_cast<double>(count.bytes) / kRequests;
    auto& entry =
        report.Bench("engine_request_" + std::to_string(request_size));
    entry.AddMetric("allocs_per_request", allocs_per_request,
                    obs::Direction::kLowerIsBetter);
    entry.AddMetric("bytes_per_request", bytes_per_request,
                    obs::Direction::kLowerIsBetter);
    std::printf("request_size %2d: %.3f heap allocs/request (%.1f B/request)\n",
                request_size, allocs_per_request, bytes_per_request);
    if (allocs_per_request > kMaxAllocsPerRequest) requests_pass = false;
  }
  if (requests_pass) {
    std::printf("PASS (target <= %.0f allocs/request)\n",
                kMaxAllocsPerRequest);
  } else {
    std::fprintf(stderr,
                 "FAIL: steady-state engine scoring must stay <= %.0f heap "
                 "allocs/request\n",
                 kMaxAllocsPerRequest);
  }
  *passed = steps_pass && requests_pass;
  return report;
}

}  // namespace uv::bench
