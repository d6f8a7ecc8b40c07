// Unified benchmark driver: runs the micro kernel suite, the serving leg
// and the paper-scale legs under the standard measurement protocol —
// warmup + N timed repeats with obs::ResetAll() isolation between repeats —
// and writes one canonical perf ledger (default BENCH_core.json) through
// obs::Report. The committed BENCH_core.json at the repo root is the
// regression baseline: CI re-runs `bench_suite --micro --serve` and gates
// the fresh ledger with tools/bench_diff.py.
//
//   bench_suite [--micro] [--serve] [--serve-monitor] [--city-scale TAG]...
//               [--repeats N] [--warmup N] [--out FILE]
//   bench_suite (--paper NAME | --alloc | --scaling) [--out FILE]
//
// --paper runs one table or figure of the paper's evaluation, --alloc the
// heap-allocation gates and --scaling the thread sweep (legs.h). Each runs
// alone and writes BENCH_<NAME>.json, BENCH_alloc.json or
// BENCH_scaling.json by default; a failed gate exits 1 after the ledger is
// written. UV_BENCH_REPEATS / UV_BENCH_WARMUP / UV_BENCH_OUT are the env
// fallbacks; UV_BENCH_SCALE etc. shape the legs (see bench_common.h).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "autograd/ops.h"
#include "bench_common.h"
#include "core/cmsf_detector.h"
#include "core/cmsf_model.h"
#include "features/image_encoder.h"
#include "graph/csr_graph.h"
#include "graph/grid.h"
#include "infer/engine.h"
#include "infer/server.h"
#include "legs.h"
#include "nn/graph_context.h"
#include "nn/linear.h"
#include "nn/maga.h"
#include "nn/ms_gate.h"
#include "obs/quality.h"
#include "tensor/tensor_ops.h"
#include "urg/feature_store.h"
#include "urg/neighbor_sampler.h"
#include "util/buffer_pool.h"
#include "util/check.h"
#include "util/rng.h"

namespace {

using uv::bench::RandomTensor;

uv::nn::GraphContext GridContext(int side) {
  uv::graph::GridSpec grid{side, side, 128.0};
  auto csr = uv::graph::CsrGraph::FromEdges(
      grid.num_regions(), uv::graph::BuildSpatialProximityEdges(grid), false,
      true);
  return uv::nn::GraphContext::FromCsr(csr);
}

// The micro suite: one entry per hot kernel family. Sizes are chosen so a
// repeat lands in the 10-100 ms band on one core — long enough to swamp
// timer noise, short enough that CI's warmup + 5 repeats of every
// benchmark stays under a minute.
void RunMicroSuite(uv::obs::Report* report) {
  {
    const uv::Tensor a = RandomTensor(256, 256, 1);
    const uv::Tensor b = RandomTensor(256, 256, 2);
    uv::Tensor c(256, 256);
    report->RunTimed("gemm_nn_256", [&] {
      uv::Gemm(false, false, 1.0f, a, b, 0.0f, &c);
    });
    report->RunTimed("gemm_tn_256", [&] {
      uv::Gemm(true, false, 1.0f, a, b, 0.0f, &c);
    });
    report->RunTimed("gemm_nt_256", [&] {
      uv::Gemm(false, true, 1.0f, a, b, 0.0f, &c);
    });
  }
  {
    // Vectorized elementwise: y += alpha * x over 1M floats.
    const uv::Tensor x = RandomTensor(1024, 1024, 19);
    uv::Tensor y = RandomTensor(1024, 1024, 20);
    report->RunTimed("axpy_1m", [&] {
      uv::Axpy(0.5f, x, &y);
    });
  }
  {
    // Fused dense + bias + ReLU epilogue (the Linear::Forward hot path).
    const uv::Tensor x = RandomTensor(512, 256, 21);
    const uv::Tensor w = RandomTensor(256, 128, 22);
    const uv::Tensor bias = RandomTensor(1, 128, 23);
    uv::Tensor out(512, 128);
    report->RunTimed("dense_bias_relu", [&] {
      uv::GemmBiasAct(false, false, 1.0f, x, w, 0.0f, &out, &bias,
                      uv::kern::Activation::kRelu);
    });
  }
  {
    const uv::Tensor a = RandomTensor(8192, 50, 3);
    report->RunTimed("row_softmax_8192x50", [&] {
      uv::Tensor s = uv::RowSoftmax(a, 0.1f);
    });
  }
  {
    // Attention message passing (the per-epoch inner loop of every GNN).
    auto ctx = GridContext(64);
    auto x = uv::ag::MakeConst(RandomTensor(64 * 64, 64, 4));
    auto w = uv::ag::MakeConst(RandomTensor(64, 32, 5));
    auto a_src = uv::ag::MakeConst(RandomTensor(32, 1, 6));
    auto a_dst = uv::ag::MakeConst(RandomTensor(32, 1, 7));
    report->RunTimed("attention_pass_grid64", [&] {
      auto h = uv::ag::MatMul(x, w);
      uv::ag::AttentionHeads head;
      head.Add(uv::ag::MatMul(h, a_dst), uv::ag::MatMul(h, a_src), h);
      auto out = uv::ag::EdgeAttention(head, ctx.src_ids, ctx.dst_ids,
                                       ctx.offsets, 0.2f);
      (void)out->value.data();
    });
  }
  {
    // One default MAGA layer (eq. 1-8: 2 heads in each of the four banks,
    // attention AGG, hidden 64) forward and backward over the 64 x 64 grid
    // from 64 POI and 128 image columns. The pool peak of a repeat is the
    // layer's transient.
    auto ctx = GridContext(64);
    uv::Rng rng(29);
    const uv::nn::MagaLayer layer(64, 128, 64, 2, uv::nn::AggKind::kAttention,
                                  &rng);
    auto x_p = uv::ag::MakeParam(RandomTensor(64 * 64, 64, 30));
    auto x_i = uv::ag::MakeParam(RandomTensor(64 * 64, 128, 31));
    uint64_t peak = 0;
    auto& e = report->RunTimed("maga_layer_fwd_bwd_grid64", [&] {
      uv::BufferPool::ResetPeak();
      auto out = layer.Forward(x_p, x_i, ctx);
      uv::ag::Backward(uv::ag::SumAll(uv::ag::Add(
          uv::ag::Mul(out.p, out.p), uv::ag::Mul(out.i, out.i))));
      peak = uv::BufferPool::Stats().pool_bytes_peak;
      uv::ag::ZeroGrads(layer.Params());
      uv::ag::ZeroGrads({x_p, x_i});
    });
    e.AddMetric("mem.pool_bytes_peak", static_cast<double>(peak),
                uv::obs::Direction::kLowerIsBetter);
  }
  {
    // GSCM regions->clusters->regions round trip.
    const int n = 4096, k = 50;
    auto x = uv::ag::MakeConst(RandomTensor(n, 64, 8));
    auto wb = uv::ag::MakeConst(RandomTensor(64, k, 9));
    auto seg = std::make_shared<std::vector<int>>(n);
    uv::Rng rng(10);
    for (auto& s : *seg) s = rng.UniformInt(k);
    report->RunTimed("cluster_roundtrip_4096", [&] {
      auto soft = uv::ag::RowSoftmax(uv::ag::MatMul(x, wb), 0.1f);
      auto clusters = uv::ag::SegmentSumByIds(x, seg, k);
      auto back = uv::ag::MatMul(soft, clusters);
      (void)back->value.data();
    });
  }
  {
    // Conv2d forward + backward over an 8-image batch.
    const uv::Conv2dSpec spec{3, 32, 32, 16, 3, 1, 1};
    const uv::Tensor x0 = RandomTensor(8, 3 * 32 * 32, 11);
    const uv::Tensor w0 = RandomTensor(16, 3 * 9, 12);
    const uv::Tensor b0 = RandomTensor(1, 16, 13);
    report->RunTimed("conv2d_fwd_bwd_b8", [&] {
      auto x = uv::ag::MakeParam(x0);
      auto w = uv::ag::MakeParam(w0);
      auto b = uv::ag::MakeParam(b0);
      auto y = uv::ag::Conv2d(x, w, b, spec);
      uv::ag::Backward(uv::ag::SumAll(uv::ag::Mul(y, y)));
    });
  }
  {
    // The frozen tile encoder over one projection chunk of fixed random
    // 32x32 tiles: the encode cost of 256 feature-cache misses. The pool
    // peak of a repeat is the encoder's transient.
    constexpr int kTiles = 256;
    const uv::features::ConvEncoder encoder({});
    const uv::Tensor tiles = RandomTensor(kTiles, 3 * 32 * 32, 28);
    uint64_t peak = 0;
    auto& e = report->RunTimed("encode_tiles_256", [&] {
      uv::BufferPool::ResetPeak();
      const uv::Tensor features = encoder.Encode(tiles);
      peak = uv::BufferPool::Stats().pool_bytes_peak;
    });
    e.AddMetric("mem.pool_bytes_peak", static_cast<double>(peak),
                uv::obs::Direction::kLowerIsBetter);
  }
  {
    // One-head edge attention forward + backward over a 20k-segment CSR.
    report->RunTimed("segment_fwd_bwd_20k", uv::bench::SegmentFwdBwd(14));
  }
  {
    // Full reverse-mode pass over a graph model (allocation-heavy path:
    // exercises the graph arena and the buffer pool).
    auto ctx = GridContext(64);
    auto x = uv::ag::MakeConst(RandomTensor(64 * 64, 64, 17));
    report->RunTimed("backward_graph_grid64", [&] {
      auto w = uv::ag::MakeParam(RandomTensor(64, 32, 18));
      auto h = uv::ag::Relu(uv::ag::MatMul(x, w));
      auto agg = uv::ag::NeighborWeightedSum(ctx.gcn_norm, h, ctx.src_ids,
                                             ctx.dst_ids, ctx.offsets);
      auto loss = uv::ag::MeanAll(uv::ag::Mul(agg, agg));
      uv::ag::Backward(loss);
      (void)w->grad.data();
    });
  }
  {
    // The slave stage's gate (eq. 17-22): MS-Gate forward + backward over
    // 2,048 regions at production widths (K = 50, classifier 128 -> 32,
    // context 16, so a 4,161-wide filter per region), every row in the
    // loss. The pool peak of a repeat is what the fused gate bounds.
    constexpr int kRegions = 2048;
    uv::nn::MsGate::Options options;
    options.num_clusters = 50;
    options.cluster_repr_dim = 128;
    options.context_dim = 16;
    options.classifier_in = 128;
    options.classifier_hidden = 32;
    uv::Rng rng(24);
    const uv::nn::MsGate gate(options, &rng);
    const uv::nn::Mlp master(options.classifier_in, options.classifier_hidden,
                             1, &rng);
    auto x = uv::ag::MakeConst(RandomTensor(kRegions, 128, 25));
    auto assignment = uv::ag::MakeConst(
        uv::RowSoftmax(RandomTensor(kRegions, options.num_clusters, 26), 1.0f));
    auto cluster_repr =
        uv::ag::MakeConst(RandomTensor(options.num_clusters, 128, 27));
    uint64_t peak = 0;
    auto& e = report->RunTimed("ms_gate_fwd_bwd_2k", [&] {
      uv::BufferPool::ResetPeak();
      auto inclusion = gate.EstimateInclusion(cluster_repr);
      uv::ag::Backward(uv::ag::SumAll(
          gate.Forward(x, assignment, inclusion, master)));
      peak = uv::BufferPool::Stats().pool_bytes_peak;
    });
    e.AddMetric("mem.pool_bytes_peak", static_cast<double>(peak),
                uv::obs::Direction::kLowerIsBetter);
  }
}

// Paper-scale leg: builds one city-scale preset ("93k" / "175k" / "354k",
// generate_images = false) through the sharded URG + lazy feature store
// path and records the six gated entries of the city_scale.* family:
//   city_scale.urg_build_<tag>       regions_per_sec, peak pool bytes
//   city_scale.encode_<tag>          every region's tile rendered and
//                                    encoded once into an N-row table,
//                                    tiles_per_sec, peak pool bytes
//   city_scale.sampler_<tag>         subgraphs_per_sec
//   city_scale.train_step_cmsf_<tag> per-batch master step, peak pool
//                                    bytes, tile encodes per step and the
//                                    feature cache's hit ratio
//   city_scale.freeze_<tag>          gated CMSF's freeze sweep (whole-city
//                                    pass + GSCM assignment), peak pool bytes
//   city_scale.train_step_gcn_<tag>  per-batch GCN step, with the same
//                                    metrics as the CMSF step
// Each encode, train-step and freeze closure resets the pool high-water
// mark first, so mem.pool_peak_delta isolates its transient footprint —
// for a train step the number that must stay flat from 93k to 354k at
// fixed batch / fanout.
// The lazy feature store's traffic over one train-step closure: cache
// misses are tile encodes.
struct StoreTraffic {
  explicit StoreTraffic(const uv::urg::UrbanRegionGraph& urg)
      : store(dynamic_cast<const uv::urg::LazyFeatureStore*>(
            urg.features.get())) {
    UV_CHECK(store != nullptr);
  }
  void Start() {
    hits = store->cache_hits();
    misses = store->cache_misses();
  }
  void Stop() {
    hits = store->cache_hits() - hits;
    misses = store->cache_misses() - misses;
  }
  void AddMetrics(uv::obs::BenchmarkEntry* e, int steps) const {
    e->AddMetric("tiles_per_step", static_cast<double>(misses) / steps,
                 uv::obs::Direction::kLowerIsBetter);
    e->AddMetric("feature_cache_hit_ratio",
                 hits + misses > 0
                     ? static_cast<double>(hits) /
                           static_cast<double>(hits + misses)
                     : 0.0);
  }

  const uv::urg::LazyFeatureStore* store;
  uint64_t hits = 0;
  uint64_t misses = 0;
};

void RunCityScaleSuite(uv::obs::Report* report,
                       const uv::bench::BenchConfig& bench,
                       const std::string& tag) {
  uv::synth::CityConfig config;
  uv::synth::CityScalePreset(tag, bench.seed, &config);  // main() checked tag.
  constexpr int kBatch = 256;
  constexpr int kFanout = 16;
  std::printf("--- city_scale %s: %d x %d = %d regions ---\n", tag.c_str(),
              config.height, config.width, config.num_regions());
  auto city = std::make_shared<const uv::synth::City>(
      uv::synth::GenerateCity(config));
  const int n = config.num_regions();

  // Train steps are the expensive closures (one full minibatch epoch per
  // repeat); cap their repeats so a --repeats 5 micro run does not spend an
  // hour here. The whole-city encode and the freeze sweep share the cap.
  const int step_repeats = std::min(bench.repeats, 2);

  uv::urg::UrbanRegionGraph urg;
  {
    uv::BufferPool::ResetPeak();
    auto& e = report->RunTimed("city_scale.urg_build_" + tag, [&] {
      urg = uv::urg::BuildShardedUrg(city, uv::urg::UrgOptions{},
                                     uv::urg::ShardOptions{});
    });
    const double secs = e.Stats().p50;
    e.AddMetric("regions_per_sec", secs > 0.0 ? n / secs : 0.0,
                uv::obs::Direction::kHigherIsBetter);
    e.AddMetric("mem.pool_bytes_peak",
                static_cast<double>(uv::BufferPool::Stats().pool_bytes_peak),
                uv::obs::Direction::kLowerIsBetter);
    e.AddMetric("num_regions", static_cast<double>(n));
    e.AddMetric("num_edges", static_cast<double>(urg.num_edges));
  }

  {
    // The pass a resident image table needs at URG build: every region's
    // tile rendered and encoded once, one 256-tile encoder chunk at a time,
    // into an N-row table.
    const uv::urg::UrgOptions urg_options;
    uv::features::ConvEncoder::Options enc;
    enc.image_size = config.image_size;
    enc.out_dim = urg_options.image_feature_dim;
    enc.seed = urg_options.encoder_seed;
    const uv::features::ConvEncoder encoder(enc);
    std::vector<int> ids(n);
    for (int i = 0; i < n; ++i) ids[i] = i;
    uint64_t peak_delta = 0, peak = 0;
    auto& e = report->RunTimed("city_scale.encode_" + tag, /*warmup=*/0,
                               step_repeats, [&] {
      uv::BufferPool::ResetPeak();
      const uint64_t base = uv::BufferPool::Stats().pool_bytes;
      uv::Tensor table;
      uv::urg::RenderAndEncodeTiles(*city, encoder, ids, &table);
      peak = uv::BufferPool::Stats().pool_bytes_peak;
      peak_delta = peak > base ? peak - base : 0;
    });
    const double secs = e.Stats().p50;
    e.AddMetric("tiles_per_sec", secs > 0.0 ? n / secs : 0.0,
                uv::obs::Direction::kHigherIsBetter);
    e.AddMetric("mem.pool_bytes_peak", static_cast<double>(peak),
                uv::obs::Direction::kLowerIsBetter);
    e.AddMetric("mem.pool_peak_delta", static_cast<double>(peak_delta));
  }

  {
    const uv::urg::NeighborView view(urg);
    uv::urg::MinibatchConfig mcfg;
    mcfg.batch_size = kBatch;
    mcfg.fanout = kFanout;
    mcfg.seed = bench.seed;
    // Strided seed batches: batch b draws {b, b + stride, b + 2*stride, ...},
    // all distinct, spread across the whole grid.
    constexpr int kBatches = 8;
    const int stride = n / kBatch;
    int64_t edges_sampled = 0;
    auto& e = report->RunTimed("city_scale.sampler_" + tag, [&] {
      edges_sampled = 0;
      std::vector<int> seeds(kBatch);
      for (int b = 0; b < kBatches; ++b) {
        for (int i = 0; i < kBatch; ++i) seeds[i] = b + i * stride;
        const auto sg = uv::urg::SampleKHop(view, seeds, mcfg);
        edges_sampled += sg.num_edges();
      }
    });
    const double secs = e.Stats().p50;
    e.AddMetric("subgraphs_per_sec", secs > 0.0 ? kBatches / secs : 0.0,
                uv::obs::Direction::kHigherIsBetter);
    e.AddMetric("edges_per_subgraph",
                static_cast<double>(edges_sampled) / kBatches);
  }

  std::vector<int> train_ids = urg.LabeledIds();
  std::vector<int> train_labels(train_ids.size());
  for (size_t i = 0; i < train_ids.size(); ++i) {
    train_labels[i] = urg.labels[train_ids[i]];
  }
  const int bs = std::min<int>(kBatch, static_cast<int>(train_ids.size()));
  const int num_batches = (static_cast<int>(train_ids.size()) + bs - 1) / bs;

  {
    uv::core::CmsfConfig cfg;
    cfg.seed = bench.seed;
    cfg.master_epochs = 1;
    cfg.batch_size = kBatch;
    cfg.fanout = kFanout;
    // Gate off: the step keeps the full master path (MAGA trunk + GSCM +
    // classifier) but skips the end-of-training freeze sweep, a one-time
    // cost amortized over real multi-epoch runs with its own entry below.
    cfg.use_gate = false;
    double step_ms = 0.0;
    uint64_t peak_delta = 0, peak = 0;
    StoreTraffic traffic(urg);
    auto& e = report->RunTimed("city_scale.train_step_cmsf_" + tag,
                               /*warmup=*/0, step_repeats, [&] {
      uv::BufferPool::ResetPeak();
      const uint64_t base = uv::BufferPool::Stats().pool_bytes;
      traffic.Start();
      uv::Rng rng(bench.seed);
      uv::core::CmsfModel model(cfg, urg.PoiDim(), urg.ImageDim(), &rng);
      uv::core::BatchPlan plan(cfg.batch_size, cfg.fanout, cfg.maga_layers);
      plan.SetTrainSet(train_ids, train_labels, cfg.pos_weight);
      const auto result = uv::core::TrainMaster(&model, urg, &plan);
      step_ms = result.seconds_per_epoch * 1000.0 / num_batches;
      traffic.Stop();
      peak = uv::BufferPool::Stats().pool_bytes_peak;
      peak_delta = peak > base ? peak - base : 0;
    });
    e.AddMetric("train_step_ms", step_ms, uv::obs::Direction::kLowerIsBetter);
    e.AddMetric("mem.pool_bytes_peak", static_cast<double>(peak),
                uv::obs::Direction::kLowerIsBetter);
    e.AddMetric("mem.pool_peak_delta", static_cast<double>(peak_delta));
    e.AddMetric("batches_per_epoch", static_cast<double>(num_batches));
    traffic.AddMetrics(&e, num_batches);
  }

  {
    // The freeze sweep of a gated CMSF, as TrainMaster runs it after its
    // last epoch: the whole-city pass, layer by layer over the shards, then
    // GSCM's assignment over the trunk rows.
    uv::core::CmsfConfig cfg;
    cfg.seed = bench.seed;
    uv::Rng rng(bench.seed);
    const uv::core::CmsfModel model(cfg, urg.PoiDim(), urg.ImageDim(), &rng);
    uint64_t peak_delta = 0, peak = 0;
    auto& e = report->RunTimed("city_scale.freeze_" + tag, /*warmup=*/0,
                               step_repeats, [&] {
      uv::BufferPool::ResetPeak();
      const uint64_t base = uv::BufferPool::Stats().pool_bytes;
      (void)uv::core::FreezeAssignment(model, urg, train_ids, train_labels);
      peak = uv::BufferPool::Stats().pool_bytes_peak;
      peak_delta = peak > base ? peak - base : 0;
    });
    const double secs = e.Stats().p50;
    e.AddMetric("regions_per_sec", secs > 0.0 ? n / secs : 0.0,
                uv::obs::Direction::kHigherIsBetter);
    e.AddMetric("mem.pool_bytes_peak", static_cast<double>(peak),
                uv::obs::Direction::kLowerIsBetter);
    e.AddMetric("mem.pool_peak_delta", static_cast<double>(peak_delta));
  }

  {
    uv::baselines::TrainOptions options;
    options.epochs = 1;
    options.seed = bench.seed;
    options.batch_size = kBatch;
    options.fanout = kFanout;
    double step_ms = 0.0;
    uint64_t peak_delta = 0, peak = 0;
    StoreTraffic traffic(urg);
    auto& e = report->RunTimed("city_scale.train_step_gcn_" + tag,
                               /*warmup=*/0, step_repeats, [&] {
      uv::BufferPool::ResetPeak();
      const uint64_t base = uv::BufferPool::Stats().pool_bytes;
      traffic.Start();
      auto detector = uv::baselines::MakeDetector("GCN", options,
                                                  uv::core::CmsfConfig{});
      detector->Train(urg, train_ids, train_labels);
      step_ms = detector->TrainSecondsPerEpoch() * 1000.0 / num_batches;
      traffic.Stop();
      peak = uv::BufferPool::Stats().pool_bytes_peak;
      peak_delta = peak > base ? peak - base : 0;
    });
    e.AddMetric("train_step_ms", step_ms, uv::obs::Direction::kLowerIsBetter);
    e.AddMetric("mem.pool_bytes_peak", static_cast<double>(peak),
                uv::obs::Direction::kLowerIsBetter);
    e.AddMetric("mem.pool_peak_delta", static_cast<double>(peak_delta));
    e.AddMetric("batches_per_epoch", static_cast<double>(num_batches));
    traffic.AddMetrics(&e, num_batches);
  }
}

// Serving leg: trains CMSF on the quickstart-shaped city (a Shenzhen-like
// synthetic at quickstart scale), then serves the same 32-id request
// stream through both scoring paths and records the serve.* ledger family:
//   serve.autograd_quickstart  the training-path Score. It has no way to
//                              reuse work across requests — the
//                              master-slave coupling is global, so every
//                              request replays the full-graph autograd
//                              forward and slices out its rows.
//   serve.engine_quickstart    the grad-free engine behind the concurrent
//                              micro-batching ScoringServer; the globally
//                              coupled state is computed once at engine
//                              construction and each request only pays for
//                              its own rows' tail.
// The engine entry carries regions_per_sec and speedup_vs_autograd plus the
// serve.queue_wait_us / serve.batch_size / serve.latency_us histogram
// percentiles captured from the final timed repeat. Both paths are
// verified bit-identical before anything is recorded.
void RunServeSuite(uv::obs::Report* report,
                   const uv::bench::BenchConfig& bench) {
  const uv::synth::CityConfig config =
      uv::synth::ShenzhenLike(/*scale=*/0.02, /*seed=*/42);
  const uv::urg::UrbanRegionGraph urg =
      uv::urg::BuildUrg(uv::synth::GenerateCity(config), uv::urg::UrgOptions{});
  const int n = urg.num_regions();
  std::printf("--- serve: quickstart city, %d regions ---\n", n);

  const uv::bench::TrainSet train = uv::bench::Fold0TrainSet(urg, 7);
  uv::core::CmsfConfig cmsf;
  cmsf.num_clusters = 30;
  cmsf.master_epochs = std::min(bench.epochs, 40);
  cmsf.slave_epochs = 10;
  cmsf.seed = bench.seed;
  uv::core::CmsfDetector detector(cmsf);
  detector.Train(urg, train.ids, train.labels);

  std::vector<int> all_ids(n);
  for (int id = 0; id < n; ++id) all_ids[id] = id;

  static constexpr int kClients = 4;
  static constexpr int kRequestSize = 32;

  // Autograd serving baseline: each request pays a full-graph forward. A
  // handful of requests is enough to price that per-request cost without
  // stalling CI; regions_per_sec is ids actually served over wall time.
  static constexpr int kAutogradRequests = 8;
  auto& autograd_entry = report->RunTimed("serve.autograd_quickstart", [&] {
    std::vector<int> ids(kRequestSize);
    for (int r = 0; r < kAutogradRequests; ++r) {
      for (int i = 0; i < kRequestSize; ++i) {
        ids[i] = (r * kRequestSize + i) % n;
      }
      (void)detector.Score(urg, ids);
    }
  });
  const double autograd_secs = autograd_entry.Stats().p50;
  const double autograd_rps =
      autograd_secs > 0.0 ? kAutogradRequests * kRequestSize / autograd_secs
                          : 0.0;
  autograd_entry.AddMetric("regions_per_sec", autograd_rps,
                           uv::obs::Direction::kHigherIsBetter);
  autograd_entry.AddMetric("request_size", kRequestSize);
  autograd_entry.AddMetric("requests",
                           static_cast<double>(kAutogradRequests));

  const std::vector<float> autograd_scores = detector.Score(urg, all_ids);

  auto engine = uv::infer::MakeCmsfEngine(*detector.model(),
                                          &detector.frozen(), urg);
  // Bit-identity guard: a ledger entry for a wrong-answer engine would be
  // worse than no entry at all.
  const std::vector<float> engine_scores = engine->Score(all_ids);
  for (int i = 0; i < n; ++i) {
    if (engine_scores[i] != autograd_scores[i]) {
      std::fprintf(stderr,
                   "FATAL: engine/autograd mismatch at region %d (%g vs %g)\n",
                   i, engine_scores[i], autograd_scores[i]);
      std::exit(1);
    }
  }

  // Concurrent serving: 4 clients submit 32-id micro-batches covering every
  // region once per repeat, through the batching dispatcher.
  const auto serve_one_repeat = [&] {
    uv::infer::ScoringServer server(engine.get(), uv::infer::ServerOptions{});
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([c, n, &server] {
        int ids[kRequestSize];
        float out[kRequestSize];
        // Client c scores ids congruent to c mod kClients, 32 at a time.
        int filled = 0;
        for (int id = c; id < n; id += kClients) {
          ids[filled++] = id;
          if (filled == kRequestSize) {
            server.Score(ids, filled, out);
            filled = 0;
          }
        }
        if (filled > 0) server.Score(ids, filled, out);
      });
    }
    for (auto& c : clients) c.join();
  };
  auto& engine_entry =
      report->RunTimed("serve.engine_quickstart", serve_one_repeat);
  const double engine_secs = engine_entry.Stats().p50;
  const double engine_rps = engine_secs > 0.0 ? n / engine_secs : 0.0;
  engine_entry.AddMetric("regions_per_sec", engine_rps,
                         uv::obs::Direction::kHigherIsBetter);
  engine_entry.AddMetric(
      "speedup_vs_autograd", autograd_rps > 0.0 ? engine_rps / autograd_rps : 0.0,
      uv::obs::Direction::kHigherIsBetter);
  engine_entry.AddMetric("num_regions", static_cast<double>(n));
  engine_entry.AddMetric("clients", kClients);
  engine_entry.AddMetric("request_size", kRequestSize);

  // Same load with a QualityMonitor attached: prices the wait-free drift
  // sketches riding the hot path. throughput_vs_plain is the gated ratio —
  // the monitor must stay within ~10% of unmonitored serving throughput.
  uv::obs::QualityMonitor monitor(detector.baseline(urg));
  engine->SetQualityMonitor(&monitor);
  auto& monitored_entry =
      report->RunTimed("serve.engine_monitored_quickstart", serve_one_repeat);
  engine->SetQualityMonitor(nullptr);
  // Serving the training city: PSI must come out exactly 0, with no alert.
  // A monitored bench entry whose monitor misreports drift would poison
  // the ledger, so treat that like the bit-identity guard above.
  const uv::obs::DriftReport drift = monitor.ComputeDrift();
  if (drift.feature_psi_max != 0.0 || drift.score_psi != 0.0 || drift.alert) {
    std::fprintf(stderr,
                 "FATAL: monitored serve of the training city reported "
                 "drift (feature PSI %.9f, score PSI %.9f, alert %d)\n",
                 drift.feature_psi_max, drift.score_psi, drift.alert ? 1 : 0);
    std::exit(1);
  }
  const double monitored_secs = monitored_entry.Stats().p50;
  const double monitored_rps =
      monitored_secs > 0.0 ? n / monitored_secs : 0.0;
  const double vs_plain = engine_rps > 0.0 ? monitored_rps / engine_rps : 0.0;
  monitored_entry.AddMetric("regions_per_sec", monitored_rps,
                            uv::obs::Direction::kHigherIsBetter);
  monitored_entry.AddMetric("throughput_vs_plain", vs_plain,
                            uv::obs::Direction::kHigherIsBetter);
  monitored_entry.AddMetric("num_regions", static_cast<double>(n));
  monitored_entry.AddMetric("clients", kClients);
  monitored_entry.AddMetric("request_size", kRequestSize);

  std::printf("autograd : %10.0f regions/sec\n", autograd_rps);
  std::printf("engine   : %10.0f regions/sec (%.1fx)\n", engine_rps,
              autograd_rps > 0.0 ? engine_rps / autograd_rps : 0.0);
  std::printf("monitored: %10.0f regions/sec (%.2fx vs plain)\n",
              monitored_rps, vs_plain);
}

// Telemetry demo: runs a ScoringServer under continuous client load for a
// couple of seconds and prints ScoringServer::Stats() ticks — live rolling
// window percentiles, queue depth, in-flight count, dispatcher state —
// plus the tail of the request-event ring. With UV_EXPORT set, the same
// numbers land in the Prometheus/JSON files while this runs; the point of
// the demo is seeing Stats() agree with the exporter. Not a ledger entry
// (it measures nothing; it exercises the introspection surface).
void RunServeMonitor(const uv::bench::BenchConfig& bench) {
  const uv::synth::CityConfig config =
      uv::synth::ShenzhenLike(/*scale=*/0.02, /*seed=*/42);
  const uv::urg::UrbanRegionGraph urg =
      uv::urg::BuildUrg(uv::synth::GenerateCity(config), uv::urg::UrgOptions{});
  const int n = urg.num_regions();
  std::printf("--- serve-monitor: quickstart city, %d regions ---\n", n);

  const uv::bench::TrainSet train = uv::bench::Fold0TrainSet(urg, 7);
  uv::core::CmsfConfig cmsf;
  cmsf.num_clusters = 30;
  cmsf.master_epochs = std::min(bench.epochs, 10);
  cmsf.slave_epochs = 5;
  cmsf.seed = bench.seed;
  uv::core::CmsfDetector detector(cmsf);
  detector.Train(urg, train.ids, train.labels);
  auto engine = uv::infer::MakeCmsfEngine(*detector.model(),
                                          &detector.frozen(), urg);

  uv::infer::ServerOptions server_options = uv::infer::ServerOptions::FromEnv();
  server_options.slo_window_s = 2;  // Short window so ticks visibly roll.
  if (server_options.event_capacity <= 0) server_options.event_capacity = 256;
  uv::infer::ScoringServer server(engine.get(), server_options);

  static constexpr int kMonitorClients = 2;
  static constexpr int kRequestSize = 32;
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  clients.reserve(kMonitorClients);
  for (int c = 0; c < kMonitorClients; ++c) {
    clients.emplace_back([c, n, &server, &stop] {
      int ids[kRequestSize];
      float out[kRequestSize];
      int cursor = c * kRequestSize;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int i = 0; i < kRequestSize; ++i) {
          ids[i] = (cursor + i) % n;
        }
        cursor = (cursor + kRequestSize) % n;
        server.Score(ids, kRequestSize, out);
      }
    });
  }

  static constexpr int kTicks = 3;
  for (int t = 0; t < kTicks; ++t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    const uv::infer::ServerStats s = server.Stats();
    std::printf(
        "tick %d: reqs=%llu batches=%llu depth=%lld inflight=%lld state=%lld "
        "| window(%llus, %llu reqs) latency p50/p95/p99 = %.0f/%.0f/%.0f us, "
        "queue_wait p99 = %.0f us\n",
        t + 1, static_cast<unsigned long long>(s.requests_total),
        static_cast<unsigned long long>(s.batches_total),
        static_cast<long long>(s.queue_depth),
        static_cast<long long>(s.inflight),
        static_cast<long long>(s.dispatcher_state),
        static_cast<unsigned long long>(s.window_us / 1000000),
        static_cast<unsigned long long>(s.window_count), s.latency_p50_us,
        s.latency_p95_us, s.latency_p99_us, s.queue_wait_p99_us);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& c : clients) c.join();
  server.Shutdown();

  const auto events = server.RecentEvents();
  const size_t tail = events.size() < 4 ? events.size() : size_t{4};
  std::printf("last %zu of %zu ring events:\n", tail, events.size());
  for (size_t i = events.size() - tail; i < events.size(); ++i) {
    const auto& e = events[i];
    std::printf("  req=%llu batch=%llu n=%d queue_wait=%lluus latency=%lluus\n",
                static_cast<unsigned long long>(e.id),
                static_cast<unsigned long long>(e.batch), e.n,
                static_cast<unsigned long long>(e.queue_wait_us),
                static_cast<unsigned long long>(e.latency_us));
  }
}

// Prints why the command line was rejected and the usage; returns exit
// code 2.
int Usage(const std::string& why) {
  if (!why.empty()) std::fprintf(stderr, "bench_suite: %s\n", why.c_str());
  std::string names;
  for (const auto& name : uv::bench::PaperLegNames()) {
    names += (names.empty() ? "" : ", ") + name;
  }
  std::fprintf(stderr,
               "usage: bench_suite [--micro] [--serve] [--serve-monitor] "
               "[--city-scale TAG]... [--repeats N] [--warmup N] "
               "[--out FILE]\n"
               "       bench_suite (--paper NAME | --alloc | --scaling) "
               "[--out FILE]\n"
               "       TAG in {93k, 175k, 354k}; repeatable\n"
               "       NAME in {%s}\n",
               names.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool micro = false, serve = false, serve_monitor = false;
  std::vector<std::string> city_scales;
  // The legs that run alone, by ledger name: a paper leg's NAME, "alloc"
  // or "scaling".
  std::vector<std::string> alone;
  // Every leg is resolved before any runs, so a bad argument exits 2 at
  // once and writes no ledger instead of failing after minutes of
  // measurement.
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--micro") {
      micro = true;
      continue;
    }
    if (arg == "--serve") {
      serve = true;
      continue;
    }
    if (arg == "--serve-monitor") {
      serve_monitor = true;
      continue;
    }
    if (arg == "--alloc" || arg == "--scaling") {
      alone.push_back(arg.substr(2));
      continue;
    }
    std::string flag;
    const char* value = nullptr;
    for (const char* f :
         {"--city-scale", "--paper", "--repeats", "--warmup", "--out", "-o"}) {
      value = uv::bench::FlagValue(argc, argv, &i, f);
      if (value != nullptr) {
        flag = f;
        break;
      }
    }
    if (value == nullptr) return Usage("unknown argument '" + arg + "'");
    if (*value == '\0') return Usage(flag + " needs a value");
    if (flag == "--city-scale") {
      uv::synth::CityConfig config;
      if (!uv::synth::CityScalePreset(value, 0, &config)) {
        return Usage("unknown --city-scale tag '" + std::string(value) + "'");
      }
      city_scales.emplace_back(value);
    } else if (flag == "--paper") {
      const auto& legs = uv::bench::PaperLegNames();
      if (std::find(legs.begin(), legs.end(), value) == legs.end()) {
        return Usage("unknown --paper leg '" + std::string(value) + "'");
      }
      alone.emplace_back(value);
    }  // The rest are read by BenchConfig::FromArgs and LedgerPath.
  }
  const bool core = micro || serve || !city_scales.empty();
  if (!alone.empty() && (alone.size() > 1 || core || serve_monitor)) {
    return Usage("--paper, --alloc and --scaling each run alone");
  }
  if (!core && !serve_monitor && alone.empty()) return Usage("");

  const auto bench = uv::bench::BenchConfig::FromArgs(argc, argv);
  if (!alone.empty()) {
    // A leg that runs alone has its own ledger, never BENCH_core.json by
    // default, and writes it even when its gate fails.
    const std::string& leg = alone[0];
    const std::string ledger_path =
        uv::bench::LedgerPath("BENCH_" + leg + ".json", argc, argv);
    bool passed = true;
    const uv::obs::Report report =
        leg == "alloc"     ? uv::bench::RunAllocLeg(bench, &passed)
        : leg == "scaling" ? uv::bench::RunScalingLeg(bench, &passed)
                           : uv::bench::RunPaperLeg(leg, bench);
    uv::bench::WriteLedger(report, ledger_path);
    return passed ? 0 : 1;
  }
  const std::string ledger_path =
      uv::bench::LedgerPath("BENCH_core.json", argc, argv);
  auto report = uv::bench::MakeReport("core", bench);
  std::printf("=== bench_suite (warmup=%d, repeats=%d) ===\n", bench.warmup,
              bench.repeats);

  if (micro) RunMicroSuite(&report);
  if (serve) RunServeSuite(&report, bench);
  if (serve_monitor) RunServeMonitor(bench);
  for (const auto& tag : city_scales) RunCityScaleSuite(&report, bench, tag);

  // The monitor demo records no benchmarks; running it alone must not
  // clobber an existing ledger with an empty one.
  if (core) uv::bench::WriteLedger(report, ledger_path);
  return 0;
}
