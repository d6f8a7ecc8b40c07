// The paper's evaluation (Section VI) as bench_suite --paper=<name> legs.
// Table II and Figs. 5(a)-6(c) are cross-validated sweeps: each is one
// Sweep of data rows, run by RunSweep. Table I (dataset statistics), Table
// III (efficiency) and Fig. 7 (case study) are their own functions. Our
// cities are synthetic stand-ins at UV_BENCH_SCALE of the paper's sizes;
// the paper's numbers are printed alongside where the tables carry them.

#include "legs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <numeric>

#include "eval/metrics.h"
#include "util/buffer_pool.h"
#include "util/table.h"
#include "util/timer.h"

namespace uv::bench {
namespace {

const std::vector<std::string>& CityNames() {
  static const std::vector<std::string>* names =
      new std::vector<std::string>{"Fuzhou", "Shenzhen", "Beijing"};
  return *names;
}

// The sensitivity/ablation figures default to the two cheaper cities to
// bound single-core wall-clock; set UV_BENCH_ALL_CITIES=1 to sweep all
// three as in the paper.
const std::vector<std::string>& AblationCityNames() {
  static const std::vector<std::string>* names = [] {
    if (std::getenv("UV_BENCH_ALL_CITIES") != nullptr) {
      return new std::vector<std::string>{"Fuzhou", "Shenzhen", "Beijing"};
    }
    return new std::vector<std::string>{"Fuzhou", "Shenzhen"};
  }();
  return *names;
}

// ---------------------------------------------------------------------------
// Cross-validated sweeps
// ---------------------------------------------------------------------------

// A printed column: one metric of one of the row's arms, as mean (std). A
// null metric prints the paper's AUC for the row's city instead.
struct Column {
  const char* header;
  eval::MeanStd eval::RunStats::*metric;
  int arm = 0;
};

// One cross-validated run of a row: detector `method`, recorded as the
// ledger entry "<city>/<entry>".
struct Arm {
  std::string method;
  std::string entry;
};

// One table row and what it changes from the city's defaults.
struct Row {
  std::string label;
  std::vector<Arm> arms;
  urg::UrgOptions urg{};            // Fig. 5(b)'s data ablations.
  int num_clusters = 0;             // Fig. 6(a)'s K; 0 keeps the preset.
  double lambda = 0.0;              // Fig. 6(b); 0 keeps the preset.
  double label_ratio = 1.0;         // Fig. 6(c).
  std::vector<double> paper_auc{};  // Table II, one per city.
};

// A cross-validated sweep: every row on every city, one table per city.
struct Sweep {
  const char* title;
  const std::vector<std::string>& cities;
  int folds = 2;  // Unless UV_BENCH_FOLDS is set; 0 keeps the config's.
  bool city_stats = false;  // Table II's "(regions, edges, labeled)" line.
  const char* label_header;
  std::vector<Column> columns;
  std::vector<Row> rows{};
};

obs::Report RunSweep(const std::string& name, const Sweep& sweep,
                     BenchConfig bench) {
  if (sweep.folds > 0 && std::getenv("UV_BENCH_FOLDS") == nullptr) {
    bench.folds = sweep.folds;
  }
  PrintBenchHeader(sweep.title, bench);
  obs::Report report = MakeReport(name, bench);
  for (size_t c = 0; c < sweep.cities.size(); ++c) {
    const std::string& city = sweep.cities[c];
    const synth::City data = synth::GenerateCity(CityPreset(city, bench));
    urg::UrgOptions built = sweep.rows.front().urg;
    urg::UrbanRegionGraph urg = urg::BuildUrg(data, built);
    if (sweep.city_stats) {
      std::printf("--- %s (%d regions, %lld edges, %zu labeled) ---\n",
                  city.c_str(), urg.num_regions(),
                  static_cast<long long>(urg.num_edges),
                  urg.LabeledIds().size());
    } else {
      std::printf("--- %s ---\n", city.c_str());
    }
    std::vector<std::string> header = {sweep.label_header};
    for (const Column& column : sweep.columns) header.push_back(column.header);
    TextTable table(std::move(header));
    for (const Row& row : sweep.rows) {
      if (!(row.urg == built)) {
        built = row.urg;
        urg = urg::BuildUrg(data, built);
      }
      core::CmsfConfig cmsf = CmsfPreset(city, bench);
      if (row.num_clusters > 0) cmsf.num_clusters = row.num_clusters;
      if (row.lambda > 0.0) cmsf.lambda = row.lambda;
      eval::RunnerOptions options = MakeRunnerOptions(bench);
      options.label_ratio = row.label_ratio;
      std::vector<eval::RunStats> stats;
      for (const Arm& arm : row.arms) {
        WallTimer timer;
        stats.push_back(eval::RunCrossValidation(
            urg, MakeFactory(arm.method, cmsf, bench), options));
        eval::AppendRunStats(&report, city + "/" + arm.entry, stats.back());
        std::fprintf(stderr, "[%s] %s/%s done in %.0fs\n", name.c_str(),
                     city.c_str(), arm.entry.c_str(), timer.Seconds());
      }
      std::vector<std::string> cells = {row.label};
      for (const Column& column : sweep.columns) {
        if (column.metric == nullptr) {
          cells.push_back(FormatDouble(row.paper_auc[c], 3));
        } else {
          const eval::MeanStd& m = stats[column.arm].*column.metric;
          cells.push_back(FormatMeanStd(m.mean, m.std));
        }
      }
      table.AddRow(std::move(cells));
    }
    table.Print();
    std::printf("\n");
  }
  return report;
}

using eval::RunStats;

// Table II: AUC and Recall/Precision/F1 at p = 3 and 5 of all eight
// methods on the three cities, mean (std) across runs x folds, beside the
// paper's AUC.
Sweep Table2() {
  // Paper Table II AUC means: Fuzhou, Shenzhen, Beijing.
  const std::map<std::string, std::vector<double>> paper = {
      {"MLP", {0.837, 0.691, 0.699}},    {"GCN", {0.831, 0.598, 0.715}},
      {"GAT", {0.850, 0.669, 0.782}},    {"MMRE", {0.836, 0.690, 0.691}},
      {"UVLens", {0.854, 0.713, 0.772}}, {"MUVFCN", {0.846, 0.719, 0.750}},
      {"ImGAGN", {0.865, 0.636, 0.698}}, {"CMSF", {0.870, 0.762, 0.821}},
  };
  Sweep sweep{
      .title = "Table II: detection performance comparison (mean (std))",
      .cities = CityNames(),
      .folds = 0,
      .city_stats = true,
      .label_header = "Method",
      .columns = {{"AUC", &RunStats::auc},
                  {"R@3", &RunStats::recall3},
                  {"P@3", &RunStats::precision3},
                  {"F1@3", &RunStats::f13},
                  {"R@5", &RunStats::recall5},
                  {"P@5", &RunStats::precision5},
                  {"F1@5", &RunStats::f15},
                  {"paper-AUC", nullptr}}};
  for (const auto& method : baselines::AllDetectorNames()) {
    sweep.rows.push_back(Row{.label = method,
                             .arms = {{method, method}},
                             .paper_auc = paper.at(method)});
  }
  return sweep;
}

// Fig. 5(a): CMSF-M swaps MAGA for vanilla GAT stacks (no inter-modal
// context); CMSF-G removes the MS-Gate (master model only); CMSF-H also
// removes the GSCM hierarchy. Expected shape: CMSF > CMSF-G > CMSF-H,
// CMSF-M worst or near worst (Section VI-E1).
Sweep Fig5a() {
  Sweep sweep{.title = "Fig. 5(a): effect of model components",
              .cities = CityNames(),
              .label_header = "Variant",
              .columns = {{"AUC", &RunStats::auc},
                          {"F1@3", &RunStats::f13},
                          {"F1@5", &RunStats::f15}}};
  for (const char* variant : {"CMSF", "CMSF-M", "CMSF-G", "CMSF-H"}) {
    sweep.rows.push_back(Row{.label = variant, .arms = {{variant, variant}}});
  }
  return sweep;
}

// Fig. 5(b): noImage / noCate / noRad / noIndex remove feature groups from
// the URG; noRoad / noProx remove one edge relation. Expected shape: the
// full CMSF beats every ablated variant (Section VI-E2).
Sweep Fig5b() {
  using urg::FeatureAblation;
  const std::pair<const char*, urg::UrgOptions> variants[] = {
      {"full", {}},
      {"noImage", {.feature_ablation = FeatureAblation::kNoImage}},
      {"noCate", {.feature_ablation = FeatureAblation::kNoCate}},
      {"noRad", {.feature_ablation = FeatureAblation::kNoRad}},
      {"noIndex", {.feature_ablation = FeatureAblation::kNoIndex}},
      {"noRoad", {.use_road_edges = false}},
      {"noProx", {.use_spatial_edges = false}},
  };
  Sweep sweep{.title = "Fig. 5(b): effect of multi-modal urban data",
              .cities = AblationCityNames(),
              .label_header = "Variant",
              .columns = {{"AUC", &RunStats::auc}, {"F1@3", &RunStats::f13}}};
  for (const auto& [name, options] : variants) {
    sweep.rows.push_back(
        Row{.label = name, .arms = {{"CMSF", name}}, .urg = options});
  }
  return sweep;
}

// Fig. 6(a): sensitivity to the number of latent clusters K. Expected
// shape: AUC rises with K to a city-dependent optimum, then degrades as
// superfluous clusters add noise (Section VI-F).
Sweep Fig6a() {
  Sweep sweep{
      .title = "Fig. 6(a): sensitivity to the number of latent clusters K",
      .cities = AblationCityNames(),
      .label_header = "K",
      .columns = {{"AUC", &RunStats::auc}, {"F1@3", &RunStats::f13}}};
  for (int k : {5, 15, 30, 60, 120}) {
    const std::string label = std::to_string(k);
    sweep.rows.push_back(Row{.label = label,
                             .arms = {{"CMSF", "K=" + label}},
                             .num_clusters = k});
  }
  return sweep;
}

// Fig. 6(b): sensitivity to the balancing weight lambda of the slave
// stage's joint loss. Expected shape: performance rises with a moderate
// lambda (the PU rank loss regularizes the context), then declines when it
// dominates training (Section VI-F).
Sweep Fig6b() {
  Sweep sweep{.title = "Fig. 6(b): sensitivity to balancing weight",
              .cities = AblationCityNames(),
              .label_header = "lambda",
              .columns = {{"AUC", &RunStats::auc}, {"F1@3", &RunStats::f13}}};
  for (double lambda : {0.001, 0.01, 0.1, 1.0, 10.0}) {
    const std::string label = FormatDouble(lambda, 3);
    sweep.rows.push_back(Row{.label = label,
                             .arms = {{"CMSF", "lambda=" + label}},
                             .lambda = lambda});
  }
  return sweep;
}

// Fig. 6(c): CMSF vs the most competitive baseline (UVLens) as random
// masks shrink the labeled training data to 10/25/50/75/100%. Expected
// shape: CMSF stays above UVLens at every ratio and degrades more
// gracefully (Section VI-F).
Sweep Fig6c() {
  Sweep sweep{.title = "Fig. 6(c): ratio of labeled data",
              .cities = AblationCityNames(),
              .label_header = "Label ratio",
              .columns = {{"CMSF AUC", &RunStats::auc, 0},
                          {"UVLens AUC", &RunStats::auc, 1},
                          {"CMSF F1@3", &RunStats::f13, 0},
                          {"UVLens F1@3", &RunStats::f13, 1}}};
  for (double ratio : {0.10, 0.25, 0.50, 0.75, 1.00}) {
    const std::string label = FormatDouble(ratio, 2);
    sweep.rows.push_back(Row{.label = label,
                             .arms = {{"CMSF", "CMSF/ratio=" + label},
                                      {"UVLens", "UVLens/ratio=" + label}},
                             .label_ratio = ratio});
  }
  return sweep;
}

// ---------------------------------------------------------------------------
// Table I, Table III and Fig. 7
// ---------------------------------------------------------------------------

// Table I: statistics of the three datasets (#regions, #edges, #UVs,
// #non-UVs), beside the paper's.
obs::Report Table1(const BenchConfig& bench) {
  struct PaperRow {
    const char* city;
    long long regions, edges, uvs, nonuvs;
  };
  constexpr PaperRow kPaper[] = {
      {"Shenzhen", 93600, 3624676, 295, 6867},
      {"Fuzhou", 59872, 1589198, 276, 3685},
      {"Beijing", 354316, 19086524, 204, 10861},
  };
  PrintBenchHeader("Table I: statistics of the three datasets", bench);
  obs::Report report = MakeReport("table1", bench);

  TextTable table({"City", "#Regions", "#Edges", "#UVs", "#Non-UVs",
                   "paper:#Regions", "paper:#Edges", "paper:#UVs",
                   "paper:#Non-UVs"});
  for (const auto& row : kPaper) {
    auto config = CityPreset(row.city, bench);
    // Statistics only: the raw tiles are not needed.
    config.generate_images = false;
    auto urg = urg::BuildUrg(synth::GenerateCity(config), urg::UrgOptions{});
    int uvs = 0, nonuvs = 0;
    for (int l : urg.labels) {
      uvs += (l == 1);
      nonuvs += (l == 0);
    }
    auto& entry = report.Bench(row.city);
    entry.AddMetric("regions", urg.num_regions());
    entry.AddMetric("edges", static_cast<double>(urg.num_edges));
    entry.AddMetric("uvs", uvs);
    entry.AddMetric("non_uvs", nonuvs);
    table.AddRow({row.city, std::to_string(urg.num_regions()),
                  std::to_string(urg.num_edges), std::to_string(uvs),
                  std::to_string(nonuvs), std::to_string(row.regions),
                  std::to_string(row.edges), std::to_string(row.uvs),
                  std::to_string(row.nonuvs)});
  }
  table.Print();
  std::printf(
      "\nShape checks: Beijing largest, Fuzhou smallest; edge counts grow\n"
      "super-linearly with area via road connectivity; class imbalance per\n"
      "city follows the paper's UV:non-UV ratios (1:23 / 1:13 / 1:53).\n");
  return report;
}

// Table III: per-epoch training time, inference time and model size of
// every method in Shenzhen and Fuzhou. Absolute times depend on hardware;
// the orderings (simple models fastest, CNN methods largest, MMRE slowest
// to train, CMSF small and mid-speed) are the reproduction target.
obs::Report Table3(BenchConfig bench) {
  struct PaperRow {
    double train_sz, train_fz, infer_sz, infer_fz, size_mb;
  };
  const std::map<std::string, PaperRow> paper = {
      {"MLP", {0.075, 0.032, 0.037, 0.012, 1.048}},
      {"GCN", {0.022, 0.021, 0.010, 0.009, 2.159}},
      {"GAT", {0.053, 0.040, 0.026, 0.022, 2.369}},
      {"MMRE", {240.4, 116.7, 0.002, 0.002, 3.981}},
      {"UVLens", {0.369, 0.443, 0.194, 0.189, 450.1}},
      {"MUVFCN", {0.607, 0.645, 0.271, 0.264, 91.37}},
      {"ImGAGN", {0.042, 0.026, 0.016, 0.008, 133.5}},
      {"CMSF", {0.187, 0.342, 0.112, 0.062, 7.433}},
  };
  // Timing only needs a few epochs; keep runs/folds minimal.
  bench.epochs = std::min(bench.epochs, 12);
  PrintBenchHeader("Table III: efficiency comparison in Shenzhen and Fuzhou",
                   bench);
  obs::Report report = MakeReport("table3", bench);

  std::map<std::string, std::map<std::string, RunStats>> results;
  for (const std::string city : {"Shenzhen", "Fuzhou"}) {
    auto urg = BuildCityUrg(city, bench);
    const TrainSet train = Fold0TrainSet(urg, bench.seed);
    // Inference over all labeled regions, mirroring "obtaining the output
    // probability from raw input" for the deployed detector.
    const std::vector<int> all_labeled = urg.LabeledIds();
    for (const auto& method : baselines::AllDetectorNames()) {
      auto detector = MakeFactory(method, city, bench)(bench.seed);
      WallTimer wall;
      detector->Train(urg, train.ids, train.labels);
      (void)detector->Score(urg, all_labeled);
      RunStats stats;
      stats.wall_seconds = wall.Seconds();
      stats.train_seconds_per_epoch = detector->TrainSecondsPerEpoch();
      stats.inference_seconds = detector->LastInferenceSeconds();
      // The summed estimate rebuilt from the per-phase timers the detector
      // reports (CMSF's freeze sweep and slave epochs included); printed
      // beside the measured wall clock so a gap between the two (untimed
      // setup, epochs the timer missed) is visible instead of silently
      // folded into either number.
      stats.summed_job_seconds =
          stats.train_seconds_per_epoch * bench.epochs +
          detector->OtherTrainSeconds() + stats.inference_seconds;
      stats.num_parameters = detector->NumParameters();
      const std::vector<double> epochs = detector->EpochSecondsHistory();
      stats.epoch_seconds_p50 = eval::Percentile(epochs, 50.0);
      stats.epoch_seconds_p95 = eval::Percentile(epochs, 95.0);
      results[method][city] = stats;
      eval::AppendRunStats(&report, city + "/" + method, stats);
      std::fprintf(stderr, "[table3] %s/%s done\n", city.c_str(),
                   method.c_str());
    }
  }

  TextTable table({"Method", "Train(s) SZ", "Train(s) FZ", "Infer(s) SZ",
                   "Infer(s) FZ", "Wall(s) SZ", "Summed(s) SZ", "Ep p50 SZ",
                   "Ep p95 SZ", "Size(MB)", "paper:Train SZ",
                   "paper:Size(MB)"});
  for (const auto& method : baselines::AllDetectorNames()) {
    const auto& sz = results[method]["Shenzhen"];
    const auto& fz = results[method]["Fuzhou"];
    const double mb = sz.num_parameters * 4.0 / (1024.0 * 1024.0);
    const PaperRow& p = paper.at(method);
    table.AddRow({method, FormatDouble(sz.train_seconds_per_epoch, 4),
                  FormatDouble(fz.train_seconds_per_epoch, 4),
                  FormatDouble(sz.inference_seconds, 4),
                  FormatDouble(fz.inference_seconds, 4),
                  FormatDouble(sz.wall_seconds, 4),
                  FormatDouble(sz.summed_job_seconds, 4),
                  FormatDouble(sz.epoch_seconds_p50, 4),
                  FormatDouble(sz.epoch_seconds_p95, 4), FormatDouble(mb, 3),
                  FormatDouble(p.train_sz, 3), FormatDouble(p.size_mb, 3)});
  }
  table.Print();
  std::printf(
      "\nShape targets: MLP/GCN/GAT cheapest; MMRE slowest training (per-\n"
      "node negative sampling) yet fastest inference (precomputed\n"
      "embeddings); UVLens the largest model; CMSF orders of magnitude\n"
      "smaller than the CNN methods at competitive speed.\n"
      "Wall(s) is the measured train+infer wall clock; Summed(s) is the\n"
      "estimate rebuilt from the reported timers (train_s/epoch x epochs\n"
      "+ CMSF's freeze sweep and slave epochs + infer). A gap between them\n"
      "is untimed setup work, not a reporting error in either column.\n"
      "Train(s) and Ep p50/p95 are master-stage epochs only.\n");
  if (MemStatsRequested()) {
    std::printf("\n%s\n", FormatMemStats(BufferPool::Stats()).c_str());
  }
  return report;
}

// Count detected cells that are 8-adjacent to another detected cell.
int ContiguousCount(const graph::GridSpec& grid,
                    const std::vector<int>& detected) {
  std::vector<uint8_t> mark(grid.num_regions(), 0);
  for (int id : detected) mark[id] = 1;
  int contiguous = 0;
  for (int id : detected) {
    const int r = grid.RowOf(id), c = grid.ColOf(id);
    bool has = false;
    for (int dr = -1; dr <= 1 && !has; ++dr) {
      for (int dc = -1; dc <= 1 && !has; ++dc) {
        if ((dr || dc) && grid.InBounds(r + dr, c + dc) &&
            mark[grid.RegionId(r + dr, c + dc)]) {
          has = true;
        }
      }
    }
    contiguous += has;
  }
  return contiguous;
}

void PrintAsciiMap(const urg::UrbanRegionGraph& urg,
                   const std::vector<int>& cmsf_detected,
                   const std::vector<int>& uvlens_detected) {
  const auto& grid = urg.grid;
  std::vector<char> cell(grid.num_regions(), '.');
  for (int id = 0; id < grid.num_regions(); ++id) {
    if (urg.is_uv[id]) cell[id] = 'G';  // Ground truth.
  }
  for (int id : uvlens_detected) cell[id] = (cell[id] == 'G') ? 'U' : 'u';
  for (int id : cmsf_detected) {
    if (cell[id] == 'G') cell[id] = 'C';        // CMSF hit.
    else if (cell[id] == 'U') cell[id] = 'B';   // Both hit.
    else if (cell[id] == 'u') cell[id] = 'b';   // Both, but false alarm.
    else if (cell[id] == '.') cell[id] = 'c';   // CMSF false alarm.
  }
  std::printf(
      "legend: G ground-truth UV (missed) | C CMSF hit | U UVLens hit | "
      "B both hit\n        c CMSF false alarm | u UVLens false alarm | "
      "b both false alarm\n");
  // Print a cropped window around the densest ground-truth area to keep the
  // map readable at large scales.
  int best_row = 0, best_count = -1;
  for (int r = 0; r + 40 <= grid.height || r == 0; ++r) {
    int count = 0;
    for (int rr = r; rr < std::min(grid.height, r + 40); ++rr) {
      for (int c = 0; c < grid.width; ++c) {
        count += urg.is_uv[grid.RegionId(rr, c)];
      }
    }
    if (count > best_count) {
      best_count = count;
      best_row = r;
    }
    if (r + 40 > grid.height) break;
  }
  const int row_end = std::min(grid.height, best_row + 40);
  const int col_end = std::min(grid.width, 100);
  for (int r = best_row; r < row_end; ++r) {
    for (int c = 0; c < col_end; ++c) {
      std::putchar(cell[grid.RegionId(r, c)]);
    }
    std::putchar('\n');
  }
}

// Fig. 7: the paper shows map snippets of the regions CMSF and UVLens
// detect against the ground truth. Here both train on one fold, rank every
// labeled region, take the top 3% as detected UVs, and print an ASCII map
// plus overlap/contiguity statistics. Expected shape: CMSF's detections
// match the ground truth better and cover the surrounding cells of
// apparent UV regions thanks to the region-dependency modeling.
obs::Report Fig7(const BenchConfig& bench) {
  PrintBenchHeader("Fig. 7: case study (CMSF vs UVLens)", bench);
  obs::Report report = MakeReport("fig7", bench);

  for (const std::string city : {"Fuzhou", "Shenzhen"}) {
    auto urg = BuildCityUrg(city, bench);
    const TrainSet train = Fold0TrainSet(urg, bench.seed);
    // Rank *all labeled regions* as in the paper's case study and take the
    // top 3% as detections.
    const std::vector<int> ranked_ids = urg.LabeledIds();
    const int top_k = std::max(
        1, static_cast<int>(std::ceil(0.03 * ranked_ids.size())));

    std::printf("--- %s: top-%d detections of %zu labeled regions ---\n",
                city.c_str(), top_k, ranked_ids.size());
    TextTable table(
        {"Method", "hits", "hit rate", "contiguous", "true-UV cells"});
    std::vector<std::vector<int>> detections;
    for (const std::string method : {"CMSF", "UVLens"}) {
      auto detector = MakeFactory(method, city, bench)(bench.seed);
      detector->Train(urg, train.ids, train.labels);
      auto scores = detector->Score(urg, ranked_ids);
      std::vector<int> order(ranked_ids.size());
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(),
                [&](int a, int b) { return scores[a] > scores[b]; });
      std::vector<int> detected;
      for (int i = 0; i < top_k; ++i) detected.push_back(ranked_ids[order[i]]);
      int hits = 0, truth = 0;
      for (int id : detected) hits += (urg.is_uv[id] != 0);
      for (uint8_t u : urg.is_uv) truth += (u != 0);
      const int contiguous = ContiguousCount(urg.grid, detected);
      auto& entry = report.Bench(city + "/" + method);
      entry.AddMetric("hits", hits, obs::Direction::kHigherIsBetter);
      entry.AddMetric("hit_rate", static_cast<double>(hits) / top_k,
                      obs::Direction::kHigherIsBetter);
      entry.AddMetric("contiguous", contiguous);
      entry.AddMetric("true_uv_cells", truth);
      table.AddRow({method, std::to_string(hits),
                    FormatDouble(static_cast<double>(hits) / top_k, 3),
                    std::to_string(contiguous), std::to_string(truth)});
      detections.push_back(std::move(detected));
      std::fprintf(stderr, "[fig7] %s/%s done\n", city.c_str(),
                   method.c_str());
    }
    table.Print();
    std::printf("\n");
    PrintAsciiMap(urg, detections[0], detections[1]);
    std::printf("\n");
  }
  return report;
}

}  // namespace

const std::vector<std::string>& PaperLegNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "table1", "table2", "table3", "fig5a", "fig5b",
      "fig6a",  "fig6b",  "fig6c",  "fig7"};
  return *names;
}

obs::Report RunPaperLeg(const std::string& name, const BenchConfig& bench) {
  if (name == "table1") return Table1(bench);
  if (name == "table3") return Table3(bench);
  if (name == "fig7") return Fig7(bench);
  const std::map<std::string, Sweep (*)()> sweeps = {
      {"table2", Table2}, {"fig5a", Fig5a}, {"fig5b", Fig5b},
      {"fig6a", Fig6a},   {"fig6b", Fig6b}, {"fig6c", Fig6c}};
  return RunSweep(name, sweeps.at(name)(), bench);
}

}  // namespace uv::bench
