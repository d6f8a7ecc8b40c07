#include "util/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <memory>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace uv {
namespace {

// How long a parallel region sat between submission and each worker's
// claim. Only maintained while a trace or metrics log is live (the extra
// clock reads are pure overhead otherwise).
obs::Histogram& QueueWaitHist() {
  static obs::Histogram& hist =
      obs::Registry::Global().GetHistogram("threadpool.queue_wait_us");
  return hist;
}

obs::Gauge& QueueWaitGauge() {
  static obs::Gauge& gauge =
      obs::Registry::Global().GetGauge("threadpool.queue_wait_us_last");
  return gauge;
}

void RecordQueueWait(uint64_t submit_us) {
  if (submit_us == 0) return;
  const uint64_t now = obs::NowMicros();
  const uint64_t wait = now > submit_us ? now - submit_us : 0;
  QueueWaitHist().Record(wait);
  QueueWaitGauge().Set(static_cast<int64_t>(wait));
}

// Depth of parallel-region execution on this thread. Non-zero both on pool
// workers running a chunk and on the submitting thread while it
// participates, so nested ParallelFor calls from either side run inline.
thread_local int tls_region_depth = 0;

struct RegionScope {
  RegionScope() { ++tls_region_depth; }
  ~RegionScope() { --tls_region_depth; }
};

std::mutex g_global_mu;
std::unique_ptr<ThreadPool> g_global_pool;  // NOLINT: intentional singleton

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  UV_CHECK_GE(num_threads, 1);
  workers_.reserve(num_threads - 1);
  for (int i = 0; i < num_threads - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::InParallelRegion() { return tls_region_depth > 0; }

// Chunks run here record no parallel_chunk span: only chunks that a pooled
// region hands out do, so inline kernel work stays self time of the op span
// around it.
void ThreadPool::RunChunksInline(int64_t num_chunks,
                                 FunctionRef<void(int64_t)> fn) {
  RegionScope scope;
  for (int64_t c = 0; c < num_chunks; ++c) fn(c);
}

void ThreadPool::RunChunks(int64_t num_chunks, FunctionRef<void(int64_t)> fn) {
  if (num_chunks <= 0) return;
  // Nested submission (a kernel inside a fold job, a fold job inside an
  // outer region, ...) runs inline: the outer region already owns the
  // workers, and inline execution preserves the fixed chunk layout.
  if (workers_.empty() || num_chunks == 1 || InParallelRegion()) {
    RunChunksInline(num_chunks, fn);
    return;
  }

  std::lock_guard<std::mutex> submit_lock(submit_mu_);
  submit_us_.store(obs::ProfilingActive() ? obs::NowMicros() : 0,
                   std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    num_chunks_ = num_chunks;
    next_chunk_ = 0;
    claimed_chunks_ = 0;
    done_chunks_ = 0;
    chunk_fn_ = &fn;
    first_error_ = nullptr;
  }
  work_cv_.notify_all();

  // The submitting thread claims chunks alongside the workers.
  {
    RegionScope scope;
    for (;;) {
      int64_t c;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (next_chunk_ >= num_chunks_) break;
        c = next_chunk_++;
        ++claimed_chunks_;
      }
      try {
        obs::SpanGuard span("parallel_chunk", obs::SpanLevel::kFine, "chunk",
                            c);
        fn(c);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        if (!first_error_) first_error_ = std::current_exception();
        next_chunk_ = num_chunks_;  // Drop unclaimed chunks.
      }
      std::lock_guard<std::mutex> lock(mu_);
      ++done_chunks_;
    }
  }

  std::exception_ptr err;
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] {
      return next_chunk_ >= num_chunks_ && done_chunks_ == claimed_chunks_;
    });
    chunk_fn_ = nullptr;
    err = first_error_;
  }
  if (err) std::rethrow_exception(err);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    const FunctionRef<void(int64_t)>* fn = nullptr;
    int64_t c = -1;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return shutdown_ ||
               (chunk_fn_ != nullptr && next_chunk_ < num_chunks_);
      });
      if (shutdown_) return;
      fn = chunk_fn_;
      c = next_chunk_++;
      ++claimed_chunks_;
    }
    RecordQueueWait(submit_us_.load(std::memory_order_relaxed));
    {
      RegionScope scope;
      try {
        obs::SpanGuard span("parallel_chunk", obs::SpanLevel::kFine, "chunk",
                            c);
        (*fn)(c);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        if (!first_error_) first_error_ = std::current_exception();
        next_chunk_ = num_chunks_;
      }
    }
    bool drained = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++done_chunks_;
      drained = next_chunk_ >= num_chunks_ && done_chunks_ == claimed_chunks_;
    }
    if (drained) done_cv_.notify_all();
  }
}

int ThreadPool::NumThreadsFromEnv() {
  if (const char* v = std::getenv("UV_THREADS")) {
    const int n = std::atoi(v);
    if (n >= 1) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

ThreadPool& ThreadPool::Global() {
  std::lock_guard<std::mutex> lock(g_global_mu);
  if (!g_global_pool) {
    g_global_pool = std::make_unique<ThreadPool>(NumThreadsFromEnv());
  }
  return *g_global_pool;
}

void ThreadPool::SetGlobalThreads(int num_threads) {
  UV_CHECK_GE(num_threads, 1);
  std::lock_guard<std::mutex> lock(g_global_mu);
  g_global_pool = std::make_unique<ThreadPool>(num_threads);
}

void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 FunctionRef<void(int64_t, int64_t)> fn) {
  if (end <= begin) return;
  UV_CHECK_GE(grain, 1);
  const int64_t total = end - begin;
  const int64_t num_chunks = (total + grain - 1) / grain;
  if (num_chunks == 1) {
    fn(begin, end);
    return;
  }
  ThreadPool::Global().RunChunks(num_chunks, [&](int64_t c) {
    const int64_t lo = begin + c * grain;
    const int64_t hi = std::min<int64_t>(end, lo + grain);
    fn(lo, hi);
  });
}

}  // namespace uv
