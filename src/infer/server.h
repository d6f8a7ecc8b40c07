#ifndef UV_INFER_SERVER_H_
#define UV_INFER_SERVER_H_

// Concurrent micro-batching front end over a grad-free Engine. Client
// threads block in Score(); a single dispatcher thread scores whatever is
// queued as soon as it is free: whole requests in arrival order, up to
// `max_batch` region ids per engine call (a larger request is served
// alone). It never waits for a batch to fill, so requests that arrive
// while the engine runs share the next engine call. Because the engine
// tail is row-wise, results are bit-identical regardless of how requests
// happen to be batched together.
//
// Request lifecycle telemetry (global obs registry):
//   serve.queue_wait_us   histogram + rolling window, enqueue -> dispatch
//   serve.batch_size      histogram, region ids per engine call
//   serve.latency_us      histogram + rolling window, enqueue -> scored
//   serve.requests        counter, Score() calls completed
//   serve.regions         counter, region ids scored
//   serve.queue_depth     gauge, region ids waiting for dispatch
//   serve.inflight        gauge, Score() calls between enqueue and done
//   serve.dispatcher_state gauge, 0 idle / 2 scoring
//
// Every Score() call gets a process-unique monotonically increasing
// request id, carried through queue -> dispatcher -> engine. With tracing
// on, each batch emits serve.dispatch / serve.score spans (args: batch,
// reqs/size) and each *sampled* request (TraceSampleForId, rate from
// UV_TRACE_SAMPLE) emits a serve.enqueue span covering its queue wait
// (args: req, batch). With UV_METRICS on, every completed request appends
// a {"kind":"request",...} JSONL record — unsampled ground truth that the
// windowed percentiles can be checked against post hoc.
//
// Shadow scoring (ServerOptions::shadow): an optional second engine — a
// candidate checkpoint under evaluation — re-scores a deterministic
// per-request-id sample (the same splitmix64 scheme as trace sampling,
// rate from shadow_sample / UV_SHADOW_SAMPLE) *after* the primary results
// have been returned to clients, so served results and latency are never
// affected. Disagreements against the primary at the 0.5 decision
// threshold and absolute score deltas are recorded as:
//   shadow.requests       counter, sampled requests re-scored
//   shadow.regions        counter, region ids re-scored
//   shadow.disagreements  counter, decision flips vs the primary
//   shadow.score_delta_e6 histogram, |candidate - primary| * 1e6
// With both engines loaded from the same checkpoint the delta histogram
// records only zeros — engine scoring is bit-identical by contract.

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "infer/engine.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/windowed.h"

namespace uv::infer {

struct ServerOptions {
  int max_batch = 64;     // Most ids per engine call.
  int slo_window_s = 60;  // Rolling window for serve.*_us percentiles.

  // Per-request completion events retained in a ring for introspection
  // (RecentEvents). 0 disables the ring; the ring is preallocated, so the
  // steady-state request path stays allocation-free either way.
  int event_capacity = 0;

  // Time source for enqueue/dispatch/latency stamps. nullptr means
  // obs::DefaultClock() — the tracer's timeline, so request timestamps
  // double as span times. Tests inject a FakeClock; the dispatcher only
  // stamps times with it, so a frozen clock never holds a request back.
  const obs::Clock* clock = nullptr;

  // Candidate engine for shadow scoring (see header comment); nullptr
  // disables. Must cover the same region-id space as the primary and
  // outlive the server; the dispatcher is its only caller.
  Engine* shadow = nullptr;

  // Fraction of requests (sampled deterministically by request id) the
  // shadow engine re-scores. Clamped to [0, 1].
  double shadow_sample = 1.0;

  // Reads UV_SERVE_BATCH / UV_SLO_WINDOW_S / UV_SERVE_EVENTS /
  // UV_SHADOW_SAMPLE (out-of-range or unset values keep the defaults).
  static ServerOptions FromEnv();
};

// One completed request, as retained by the event ring.
struct RequestEvent {
  uint64_t id = 0;             // Monotonic request id (from 1).
  uint64_t batch = 0;          // Id of the batch that served it.
  int n = 0;                   // Region ids in the request.
  uint64_t enqueue_us = 0;     // Clock stamp at admission.
  uint64_t queue_wait_us = 0;  // Enqueue -> batch detach.
  uint64_t latency_us = 0;     // Enqueue -> results copied.
};

// Point-in-time introspection snapshot (Stats()).
struct ServerStats {
  uint64_t requests_total = 0;  // Completed Score() calls.
  uint64_t regions_total = 0;   // Region ids scored.
  uint64_t batches_total = 0;   // Engine calls.
  int64_t queue_depth = 0;      // Region ids awaiting dispatch.
  int64_t inflight = 0;         // Requests between enqueue and done.
  int64_t dispatcher_state = 0;  // 0 idle / 2 scoring.

  // Shadow-scoring totals (all zero when no shadow engine is attached).
  uint64_t shadow_requests = 0;
  uint64_t shadow_regions = 0;
  uint64_t shadow_disagreements = 0;

  // Rolling-window views (serve.latency_us / serve.queue_wait_us over the
  // last slo_window_s seconds; percentile math identical to Histogram's
  // nearest-rank bucket-lower-bound convention).
  uint64_t window_us = 0;
  uint64_t window_count = 0;
  double latency_p50_us = 0.0;
  double latency_p95_us = 0.0;
  double latency_p99_us = 0.0;
  double queue_wait_p50_us = 0.0;
  double queue_wait_p95_us = 0.0;
  double queue_wait_p99_us = 0.0;
};

class ScoringServer {
 public:
  // The engine must outlive the server; the server's dispatcher thread is
  // its only caller, satisfying the engine's single-caller contract.
  explicit ScoringServer(Engine* engine,
                         const ServerOptions& options = ServerOptions::FromEnv());
  ~ScoringServer();

  // Scores region ids[0..n) into out[0..n). Blocking; safe to call from
  // any number of threads concurrently.
  void Score(const int* ids, int n, float* out);
  std::vector<float> Score(const std::vector<int>& ids);

  // Drains pending requests and stops the dispatcher. Called by the
  // destructor; new Score() calls after shutdown are an error.
  void Shutdown();

  // Delayed ground-truth feedback: `scores` are the values this server
  // *served* earlier, paired with labels that have since arrived. Routed
  // to the primary engine's QualityMonitor for calibration (ECE) and
  // rolling precision/recall; returns false (and drops the samples) when
  // no monitor is attached. Thread-safe.
  bool Feedback(const float* scores, const int* labels, int n);

  // Live introspection: totals, queue/inflight gauges, and rolling-window
  // latency percentiles. Safe from any thread, any time.
  ServerStats Stats() const;

  // The last up-to-event_capacity completed requests, oldest first. Empty
  // when the ring is disabled.
  std::vector<RequestEvent> RecentEvents() const;

 private:
  // Stack-allocated by Score(); the queue links them intrusively so the
  // admission path performs no heap allocation.
  struct Request {
    const int* ids = nullptr;
    int n = 0;
    float* out = nullptr;
    bool done = false;
    Request* next = nullptr;
    uint64_t id = 0;
    uint64_t batch = 0;
    uint64_t enqueue_us = 0;
    uint64_t queue_wait_us = 0;
    uint64_t latency_us = 0;
  };

  void DispatchLoop();
  void RecordCompletion(const Request& req);
  // Re-scores the sampled slice of the last batch on the shadow engine and
  // records disagreement metrics. Dispatcher-only; runs after clients have
  // been notified, outside the lock.
  void RunShadowBatch(uint64_t batch_id);

  Engine* const engine_;
  const ServerOptions options_;
  const obs::Clock* const clock_;
  Engine* const shadow_;
  const uint64_t shadow_threshold_;  // Precomputed from shadow_sample.

  // Registry metrics, resolved once here: Get* takes a std::string, and the
  // admission path must not allocate per request.
  obs::Counter& requests_total_;
  obs::Counter& regions_total_;
  obs::Gauge& queue_depth_;
  obs::Gauge& inflight_;
  obs::Gauge& dispatcher_state_;
  obs::Histogram& queue_wait_us_;
  obs::Histogram& batch_size_;
  obs::Histogram& latency_us_;
  obs::Counter& shadow_requests_total_;
  obs::Counter& shadow_regions_total_;
  obs::Counter& shadow_disagree_total_;
  obs::Histogram& shadow_delta_e6_;

  // Registry-owned rolling windows feed the exporter; they are created
  // once (first server fixes window and clock), so a server with an
  // injected clock also keeps private windows on its own timeline for
  // Stats(). With the default clock the two views see identical samples.
  obs::WindowedHistogram& queue_wait_window_reg_;
  obs::WindowedHistogram& latency_window_reg_;
  obs::WindowedHistogram queue_wait_window_;
  obs::WindowedHistogram latency_window_;

  std::atomic<uint64_t> next_id_{0};
  std::atomic<uint64_t> requests_done_{0};
  std::atomic<uint64_t> regions_done_{0};
  std::atomic<uint64_t> batches_done_{0};
  std::atomic<uint64_t> shadow_requests_done_{0};
  std::atomic<uint64_t> shadow_regions_done_{0};
  std::atomic<uint64_t> shadow_disagree_done_{0};

  mutable std::mutex mu_;            // Also taken by const introspection.
  std::condition_variable work_cv_;  // Signals the dispatcher.
  std::condition_variable done_cv_;  // Signals waiting clients.
  Request* head_ = nullptr;          // FIFO intrusive queue.
  Request* tail_ = nullptr;
  bool stop_ = false;

  // Completion-event ring (mu_-guarded; preallocated in the constructor).
  std::vector<RequestEvent> events_;
  size_t event_next_ = 0;
  uint64_t event_count_ = 0;

  // Dispatcher-only batch buffers; capacity is retained across batches.
  std::vector<Request*> batch_reqs_;
  std::vector<int> batch_ids_;
  std::vector<float> batch_out_;

  // Dispatcher-only shadow buffers: ids and *copies* of the primary
  // outputs for the sampled requests. Requests are stack-allocated by
  // clients and must never be touched after done is signalled, so the
  // shadow pass works exclusively from these copies.
  std::vector<int> shadow_ids_;
  std::vector<float> shadow_ref_;
  std::vector<float> shadow_out_;
  uint64_t shadow_sampled_reqs_ = 0;

  std::thread dispatcher_;
};

}  // namespace uv::infer

#endif  // UV_INFER_SERVER_H_
