// Counts heap allocations per CMSF training step with the BufferPool
// enabled vs disabled (UV_POOL=0 semantics), by interposing the global
// operator new/delete in this binary. The pooled hot path is required to
// cut allocations per step by at least 10x; the process exits non-zero if
// it does not, so the check can gate CI.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "bench_common.h"
#include "util/buffer_pool.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_alloc_bytes{0};
std::atomic<uint64_t> g_size_hist[40];

void CountAlloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
    int b = 0;
    while ((std::size_t{1} << b) < n && b < 39) ++b;
    g_size_hist[b].fetch_add(1, std::memory_order_relaxed);
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

int main(int argc, char** argv) {
  auto bench = uv::bench::BenchConfig::FromArgs(argc, argv);
  bench.epochs = std::min(bench.epochs, 10);
  uv::bench::PrintBenchHeader(
      "Micro: heap allocations per CMSF training step", bench);
  auto report = uv::bench::MakeReport("micro_alloc", bench);

  auto urg = uv::bench::BuildCityUrg("Fuzhou", bench);
  const uv::bench::TrainSet train = uv::bench::Fold0TrainSet(urg, bench.seed);
  auto factory = uv::bench::MakeFactory("CMSF", "Fuzhou", bench);

  // Trains twice per mode: the first pass warms the pool and the
  // per-thread kernel workspaces, the second is the measured steady state.
  auto measure = [&](bool pool_on) {
    uv::BufferPool::SetEnabled(pool_on);
    {
      auto warmup = factory(bench.seed);
      warmup->Train(urg, train.ids, train.labels);
    }
    uv::BufferPool::ResetStats();
    g_allocs.store(0);
    g_alloc_bytes.store(0);
    for (auto& h : g_size_hist) h.store(0);
    g_counting.store(true);
    {
      auto detector = factory(bench.seed);
      detector->Train(urg, train.ids, train.labels);
    }
    g_counting.store(false);
    struct Result {
      double allocs_per_step;
      double bytes_per_step;
      uv::MemStatsSnapshot pool;
    } r;
    r.allocs_per_step =
        static_cast<double>(g_allocs.load()) / bench.epochs;
    r.bytes_per_step =
        static_cast<double>(g_alloc_bytes.load()) / bench.epochs;
    r.pool = uv::BufferPool::Stats();
    return r;
  };

  const auto off = measure(false);
  const auto on = measure(true);
  uv::BufferPool::SetEnabled(uv::BufferPool::Enabled());

  const double ratio =
      on.allocs_per_step > 0.0 ? off.allocs_per_step / on.allocs_per_step
                               : 0.0;
  struct Mode {
    const char* name;
    const decltype(off)* r;
  };
  for (const Mode m : {Mode{"pool_off", &off}, Mode{"pool_on", &on}}) {
    const auto& r = *m.r;
    auto& entry = report.Bench(m.name);
    entry.AddMetric("allocs_per_step", r.allocs_per_step,
                    uv::obs::Direction::kLowerIsBetter);
    entry.AddMetric("bytes_per_step", r.bytes_per_step,
                    uv::obs::Direction::kLowerIsBetter);
    entry.AddMetric("pool_acquires", static_cast<double>(r.pool.acquires));
    entry.AddMetric("pool_hits", static_cast<double>(r.pool.hits));
    entry.AddMetric("pool_heap_allocs",
                    static_cast<double>(r.pool.heap_allocs));
  }
  report.Bench("pool_on").AddMetric("reduction", ratio,
                                    uv::obs::Direction::kHigherIsBetter);
  std::printf("pool off: %.1f heap allocs/step (%.1f KB/step)\n",
              off.allocs_per_step, off.bytes_per_step / 1024.0);
  std::printf("pool on : %.1f heap allocs/step (%.1f KB/step)\n",
              on.allocs_per_step, on.bytes_per_step / 1024.0);
  if (std::getenv("UV_ALLOC_HIST") != nullptr) {
    std::printf("pool-on size histogram (bucket <= 2^b bytes: count):\n");
    for (int b = 0; b < 40; ++b) {
      const uint64_t c = g_size_hist[b].load();
      if (c > 0) {
        std::printf("  2^%-2d: %llu\n", b,
                    static_cast<unsigned long long>(c));
      }
    }
  }
  std::printf("reduction: %.1fx (target >= 10x)\n", ratio);
  std::printf(
      "pool-on acquire hit rate: %llu/%llu (%.1f%%), heap allocs %llu\n",
      static_cast<unsigned long long>(on.pool.hits),
      static_cast<unsigned long long>(on.pool.acquires),
      on.pool.acquires > 0 ? 100.0 * static_cast<double>(on.pool.hits) /
                                 static_cast<double>(on.pool.acquires)
                           : 0.0,
      static_cast<unsigned long long>(on.pool.heap_allocs));

  uv::bench::WriteLedger(
      report, uv::bench::LedgerPath("BENCH_micro_alloc.json", argc, argv));
  if (ratio < 10.0) {
    std::fprintf(stderr,
                 "FAIL: pooled hot path must cut heap allocations per step "
                 "by >= 10x (got %.1fx)\n",
                 ratio);
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
