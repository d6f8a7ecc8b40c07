// Counts heap allocations per inference request on the grad-free engine by
// interposing the global operator new/delete in this binary (the same
// harness as bench_micro_alloc). After a warmup pass that sizes the
// engine's pooled workspaces, steady-state scoring must stay at or below
// kMaxAllocsPerRequest heap allocations per request for every probed
// request size; the process exits non-zero otherwise, so the check can
// gate CI.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "bench_common.h"
#include "core/cmsf_detector.h"
#include "infer/engine.h"

namespace {

constexpr double kMaxAllocsPerRequest = 5.0;

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
      "Micro: heap allocations per grad-free inference request", bench);
  auto report = uv::bench::MakeReport("serve_alloc", bench);

  auto urg = uv::bench::BuildCityUrg("Fuzhou", bench);
  const uv::bench::TrainSet train = uv::bench::Fold0TrainSet(urg, bench.seed);

  uv::core::CmsfConfig cfg = uv::bench::CmsfPreset("Fuzhou", bench);
  cfg.master_epochs = bench.epochs;
  cfg.slave_epochs = std::min(cfg.slave_epochs, 5);
  uv::core::CmsfDetector detector(cfg);
  detector.Train(urg, train.ids, train.labels);
  auto engine =
      uv::infer::MakeCmsfEngine(*detector.model(), &detector.frozen(), urg);

  const int n = engine->num_regions();
  constexpr int kRequests = 512;
  bool pass = true;
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

    g_allocs.store(0);
    g_alloc_bytes.store(0);
    g_counting.store(true);
    run_requests();
    g_counting.store(false);

    const double allocs_per_request =
        static_cast<double>(g_allocs.load()) / kRequests;
    const double bytes_per_request =
        static_cast<double>(g_alloc_bytes.load()) / kRequests;
    char name[64];
    std::snprintf(name, sizeof(name), "engine_request_%d", request_size);
    auto& entry = report.Bench(name);
    entry.AddMetric("allocs_per_request", allocs_per_request,
                    uv::obs::Direction::kLowerIsBetter);
    entry.AddMetric("bytes_per_request", bytes_per_request,
                    uv::obs::Direction::kLowerIsBetter);
    std::printf("request_size %2d: %.3f heap allocs/request (%.1f B/request)\n",
                request_size, allocs_per_request, bytes_per_request);
    if (allocs_per_request > kMaxAllocsPerRequest) pass = false;
  }

  uv::bench::WriteLedger(
      report, uv::bench::LedgerPath("BENCH_serve_alloc.json", argc, argv));
  if (!pass) {
    std::fprintf(stderr,
                 "FAIL: steady-state engine scoring must stay <= %.0f heap "
                 "allocs/request\n",
                 kMaxAllocsPerRequest);
    return 1;
  }
  std::printf("PASS (target <= %.0f allocs/request)\n", kMaxAllocsPerRequest);
  return 0;
}
