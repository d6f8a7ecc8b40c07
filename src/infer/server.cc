#include "infer/server.h"

#include <cmath>
#include <cstdlib>
#include <cstring>

#include "obs/metrics_log.h"
#include "obs/trace.h"
#include "util/check.h"

namespace uv::infer {
namespace {

int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  const int parsed = std::atoi(v);
  return parsed > 0 ? parsed : fallback;
}

double EnvRate(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  const double parsed = std::strtod(v, nullptr);
  if (!(parsed >= 0.0)) return fallback;  // NaN/negatives keep the default.
  return parsed > 1.0 ? 1.0 : parsed;
}

// Dispatcher-state gauge values (serve.dispatcher_state). Scoring keeps
// the value 2 it had when 1 meant waiting for a batch to fill, so exported
// series read the same.
constexpr int64_t kIdle = 0;
constexpr int64_t kScoring = 2;

}  // namespace

ServerOptions ServerOptions::FromEnv() {
  ServerOptions o;
  o.max_batch = EnvInt("UV_SERVE_BATCH", o.max_batch);
  o.slo_window_s = EnvInt("UV_SLO_WINDOW_S", o.slo_window_s);
  o.event_capacity = EnvInt("UV_SERVE_EVENTS", o.event_capacity);
  o.shadow_sample = EnvRate("UV_SHADOW_SAMPLE", o.shadow_sample);
  return o;
}

ScoringServer::ScoringServer(Engine* engine, const ServerOptions& options)
    : engine_(engine),
      options_(options),
      clock_(options.clock != nullptr ? options.clock : obs::DefaultClock()),
      shadow_(options.shadow),
      shadow_threshold_(obs::SampleThreshold(options.shadow_sample)),
      requests_total_(obs::Registry::Global().GetCounter("serve.requests")),
      regions_total_(obs::Registry::Global().GetCounter("serve.regions")),
      queue_depth_(obs::Registry::Global().GetGauge("serve.queue_depth")),
      inflight_(obs::Registry::Global().GetGauge("serve.inflight")),
      dispatcher_state_(
          obs::Registry::Global().GetGauge("serve.dispatcher_state")),
      queue_wait_us_(
          obs::Registry::Global().GetHistogram("serve.queue_wait_us")),
      batch_size_(obs::Registry::Global().GetHistogram("serve.batch_size")),
      latency_us_(obs::Registry::Global().GetHistogram("serve.latency_us")),
      shadow_requests_total_(
          obs::Registry::Global().GetCounter("shadow.requests")),
      shadow_regions_total_(
          obs::Registry::Global().GetCounter("shadow.regions")),
      shadow_disagree_total_(
          obs::Registry::Global().GetCounter("shadow.disagreements")),
      shadow_delta_e6_(
          obs::Registry::Global().GetHistogram("shadow.score_delta_e6")),
      queue_wait_window_reg_(obs::Registry::Global().GetWindowed(
          "serve.queue_wait_us",
          static_cast<uint64_t>(options.slo_window_s) * 1000 * 1000)),
      latency_window_reg_(obs::Registry::Global().GetWindowed(
          "serve.latency_us",
          static_cast<uint64_t>(options.slo_window_s) * 1000 * 1000)),
      queue_wait_window_(
          static_cast<uint64_t>(options.slo_window_s) * 1000 * 1000, clock_),
      latency_window_(
          static_cast<uint64_t>(options.slo_window_s) * 1000 * 1000, clock_) {
  UV_CHECK(engine_ != nullptr);
  if (shadow_ != nullptr) {
    UV_CHECK_EQ(shadow_->num_regions(), engine_->num_regions());
  }
  UV_CHECK_GT(options_.max_batch, 0);
  UV_CHECK_GT(options_.slo_window_s, 0);
  UV_CHECK_GE(options_.event_capacity, 0);
  if (options_.event_capacity > 0) {
    events_.resize(static_cast<size_t>(options_.event_capacity));
  }
  dispatcher_ = std::thread([this] { DispatchLoop(); });
}

ScoringServer::~ScoringServer() { Shutdown(); }

void ScoringServer::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

void ScoringServer::Score(const int* ids, int n, float* out) {
  if (n <= 0) return;
  Request req;
  req.ids = ids;
  req.n = n;
  req.out = out;
  // Ids are assigned at admission, so they are monotone in enqueue order
  // and every span/record/event for one request agrees on its identity.
  req.id = next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  req.enqueue_us = clock_->NowMicros();
  inflight_.Add(1);
  {
    std::lock_guard<std::mutex> lock(mu_);
    UV_CHECK(!stop_);
    if (tail_ != nullptr) {
      tail_->next = &req;
    } else {
      head_ = &req;
    }
    tail_ = &req;
    // Counted once linked, so a depth of k means k ids the dispatcher can
    // detach.
    queue_depth_.Add(n);
  }
  work_cv_.notify_one();
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&req] { return req.done; });
  inflight_.Add(-1);
}

std::vector<float> ScoringServer::Score(const std::vector<int>& ids) {
  std::vector<float> out(ids.size());
  Score(ids.data(), static_cast<int>(ids.size()), out.data());
  return out;
}

void ScoringServer::RecordCompletion(const Request& req) {
  // Cumulative and windowed views of the same sample, one JSONL ground-
  // truth record per request (unsampled — trace sampling only thins
  // spans), and optionally a ring slot. Caller holds mu_ for the ring.
  queue_wait_us_.Record(req.queue_wait_us);
  latency_us_.Record(req.latency_us);
  queue_wait_window_.Record(req.queue_wait_us);
  latency_window_.Record(req.latency_us);
  queue_wait_window_reg_.Record(req.queue_wait_us);
  latency_window_reg_.Record(req.latency_us);
  requests_total_.Inc();
  regions_total_.Inc(static_cast<uint64_t>(req.n));
  requests_done_.fetch_add(1, std::memory_order_relaxed);
  regions_done_.fetch_add(static_cast<uint64_t>(req.n),
                          std::memory_order_relaxed);
  if (obs::MetricsLogEnabled()) {
    obs::MetricsRecord("request")
        .Int("req", static_cast<int64_t>(req.id))
        .Int("batch", static_cast<int64_t>(req.batch))
        .Int("n", req.n)
        .Int("queue_wait_us", static_cast<int64_t>(req.queue_wait_us))
        .Int("latency_us", static_cast<int64_t>(req.latency_us))
        .Emit();
  }
  if (!events_.empty()) {
    RequestEvent& slot = events_[event_next_];
    slot.id = req.id;
    slot.batch = req.batch;
    slot.n = req.n;
    slot.enqueue_us = req.enqueue_us;
    slot.queue_wait_us = req.queue_wait_us;
    slot.latency_us = req.latency_us;
    event_next_ = (event_next_ + 1) % events_.size();
    ++event_count_;
  }
}

void ScoringServer::DispatchLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    dispatcher_state_.Set(kIdle);
    work_cv_.wait(lock, [this] { return stop_ || head_ != nullptr; });
    if (head_ == nullptr) return;  // stop_ with a drained queue.

    // Score what is queued now: detach whole requests up to max_batch ids
    // (always at least one, so an oversized single request still gets
    // served). Requests that arrive while the engine runs wait for the
    // next pass and share its engine call.
    const uint64_t batch_id =
        batches_done_.fetch_add(1, std::memory_order_relaxed) + 1;
    batch_reqs_.clear();
    int total = 0;
    while (head_ != nullptr &&
           (batch_reqs_.empty() || total + head_->n <= options_.max_batch)) {
      head_->batch = batch_id;
      batch_reqs_.push_back(head_);
      total += head_->n;
      head_ = head_->next;
    }
    if (head_ == nullptr) tail_ = nullptr;
    lock.unlock();
    queue_depth_.Add(-total);
    dispatcher_state_.Set(kScoring);

    const uint64_t start_us = clock_->NowMicros();
    batch_ids_.clear();
    for (const Request* r : batch_reqs_) {
      batch_ids_.insert(batch_ids_.end(), r->ids, r->ids + r->n);
    }
    if (static_cast<int>(batch_out_.size()) < total) batch_out_.resize(total);
    engine_->ScoreInto(batch_ids_.data(), total, batch_out_.data());
    const uint64_t score_end_us = clock_->NowMicros();

    batch_size_.Record(static_cast<uint64_t>(total));
    int offset = 0;
    for (Request* r : batch_reqs_) {
      std::memcpy(r->out, batch_out_.data() + offset,
                  sizeof(float) * static_cast<size_t>(r->n));
      offset += r->n;
      r->queue_wait_us = start_us - r->enqueue_us;
      r->latency_us = clock_->NowMicros() - r->enqueue_us;
    }

    // Stage the shadow slice now — ids and primary outputs copied into
    // dispatcher-owned buffers — because the Request structs become
    // invalid the moment done is signalled. The shadow pass itself runs
    // after clients are unblocked, so it never adds to served latency.
    bool shadow_pending = false;
    if (shadow_ != nullptr) {
      shadow_ids_.clear();
      shadow_ref_.clear();
      shadow_sampled_reqs_ = 0;
      offset = 0;
      for (const Request* r : batch_reqs_) {
        if (obs::SampleIdAgainst(r->id, shadow_threshold_)) {
          shadow_ids_.insert(shadow_ids_.end(), r->ids, r->ids + r->n);
          shadow_ref_.insert(shadow_ref_.end(), batch_out_.data() + offset,
                             batch_out_.data() + offset + r->n);
          ++shadow_sampled_reqs_;
        }
        offset += r->n;
      }
      shadow_pending = !shadow_ids_.empty();
    }

    if (obs::TraceEnabled()) {
      const uint64_t end_us = clock_->NowMicros();
      // Batch-level spans are unconditional (one pair per engine call);
      // the per-request queue-wait span is thinned by the deterministic
      // id sampler so high-QPS traces stay within the span buffers.
      obs::RecordSpan("serve.dispatch", obs::SpanLevel::kCoarse, start_us,
                      end_us, "batch", static_cast<int64_t>(batch_id), "reqs",
                      static_cast<int64_t>(batch_reqs_.size()));
      obs::RecordSpan("serve.score", obs::SpanLevel::kFine, start_us,
                      score_end_us, "batch", static_cast<int64_t>(batch_id),
                      "size", total);
      for (const Request* r : batch_reqs_) {
        if (!obs::TraceSampleForId(r->id)) continue;
        obs::RecordSpan("serve.enqueue", obs::SpanLevel::kFine, r->enqueue_us,
                        start_us, "req", static_cast<int64_t>(r->id), "batch",
                        static_cast<int64_t>(r->batch));
      }
    }

    lock.lock();
    for (Request* r : batch_reqs_) {
      RecordCompletion(*r);
      r->done = true;
    }
    done_cv_.notify_all();

    if (shadow_pending) {
      lock.unlock();
      RunShadowBatch(batch_id);
      lock.lock();
    }
  }
}

void ScoringServer::RunShadowBatch(uint64_t batch_id) {
  const int m = static_cast<int>(shadow_ids_.size());
  if (static_cast<int>(shadow_out_.size()) < m) shadow_out_.resize(m);
  const uint64_t start_us = clock_->NowMicros();
  shadow_->ScoreInto(shadow_ids_.data(), m, shadow_out_.data());
  const uint64_t end_us = clock_->NowMicros();
  uint64_t disagreements = 0;
  for (int i = 0; i < m; ++i) {
    const double delta = std::fabs(static_cast<double>(shadow_out_[i]) -
                                   static_cast<double>(shadow_ref_[i]));
    shadow_delta_e6_.Record(
        static_cast<uint64_t>(std::llround(delta * 1e6)));
    if ((shadow_out_[i] >= 0.5f) != (shadow_ref_[i] >= 0.5f)) {
      ++disagreements;
    }
  }
  shadow_requests_total_.Inc(shadow_sampled_reqs_);
  shadow_regions_total_.Inc(static_cast<uint64_t>(m));
  shadow_requests_done_.fetch_add(shadow_sampled_reqs_,
                                  std::memory_order_relaxed);
  shadow_regions_done_.fetch_add(static_cast<uint64_t>(m),
                                 std::memory_order_relaxed);
  if (disagreements > 0) {
    shadow_disagree_total_.Inc(disagreements);
    shadow_disagree_done_.fetch_add(disagreements, std::memory_order_relaxed);
  }
  if (obs::TraceEnabled()) {
    obs::RecordSpan("serve.shadow", obs::SpanLevel::kFine, start_us, end_us,
                    "batch", static_cast<int64_t>(batch_id), "size", m);
  }
}

bool ScoringServer::Feedback(const float* scores, const int* labels, int n) {
  obs::QualityMonitor* monitor = engine_->quality_monitor();
  if (monitor == nullptr) return false;
  monitor->ObserveLabels(scores, labels, n);
  return true;
}

ServerStats ScoringServer::Stats() const {
  ServerStats s;
  s.requests_total = requests_done_.load(std::memory_order_relaxed);
  s.regions_total = regions_done_.load(std::memory_order_relaxed);
  s.batches_total = batches_done_.load(std::memory_order_relaxed);
  s.queue_depth = queue_depth_.Value();
  s.inflight = inflight_.Value();
  s.dispatcher_state = dispatcher_state_.Value();
  s.shadow_requests = shadow_requests_done_.load(std::memory_order_relaxed);
  s.shadow_regions = shadow_regions_done_.load(std::memory_order_relaxed);
  s.shadow_disagreements =
      shadow_disagree_done_.load(std::memory_order_relaxed);
  const obs::WindowedHistogramSnapshot lat = latency_window_.Snapshot();
  const obs::WindowedHistogramSnapshot qw = queue_wait_window_.Snapshot();
  s.window_us = lat.window_us;
  s.window_count = lat.count;
  s.latency_p50_us = lat.p50;
  s.latency_p95_us = lat.p95;
  s.latency_p99_us = lat.p99;
  s.queue_wait_p50_us = qw.p50;
  s.queue_wait_p95_us = qw.p95;
  s.queue_wait_p99_us = qw.p99;
  return s;
}

std::vector<RequestEvent> ScoringServer::RecentEvents() const {
  std::vector<RequestEvent> out;
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.empty() || event_count_ == 0) return out;
  const size_t n = event_count_ < events_.size()
                       ? static_cast<size_t>(event_count_)
                       : events_.size();
  out.reserve(n);
  // Oldest first: the ring's next write slot is also its oldest entry once
  // it has wrapped.
  const size_t start =
      event_count_ < events_.size() ? 0 : event_next_;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(events_[(start + i) % events_.size()]);
  }
  return out;
}

}  // namespace uv::infer
