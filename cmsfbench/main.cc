// Workload benchmark for the CMSF urban-village detector.
//
//   cmsf_workload --workload <train_full|train_minibatch|serve_bulk|
//                             serve_interactive>
//                 [--seed N] [--seconds S] [--dir DIR] [--trace] [--smoke]
//
// Runs one workload in this process and prints its end-to-end metrics as
// "<metric> <workload> <value> <unit>" lines, then one result line. With
// --trace it also records the set-up and measured phases' spans into
// DIR/<workload>.{setup,measure}.trace.json and prints the per-layer
// counters; run.py rolls the spans up. Writes a
// uv-perf-ledger-v1 ledger to DIR/<workload>[.trace].ledger.json. Exits 1
// when an output check fails, 2 on a bad command line.

#include <cstdio>
#include <map>
#include <string>

#include "common.h"
#include "util/thread_pool.h"
#include "workloads.h"

int main(int argc, char** argv) {
  uvbench::Options options;
  if (!options.Parse(argc, argv)) return 2;
  const std::map<std::string, void (*)(uvbench::Run*)> workloads = {
      {"train_full", uvbench::RunTrainFull},
      {"train_minibatch", uvbench::RunTrainMinibatch},
      {"serve_bulk", uvbench::RunServeBulk},
      {"serve_interactive", uvbench::RunServeInteractive},
  };
  const auto it = workloads.find(options.workload);
  if (it == workloads.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }

  // Kernels run on one thread: the measurements then do not depend on the
  // host's core count, and results are bit-identical at any width anyway.
  // Concurrency in the serving workloads comes from their client threads.
  uv::ThreadPool::SetGlobalThreads(1);
  uvbench::Run run(options);
  it->second(&run);
  run.Metric("peak_rss_mb", uvbench::PeakRssMb(), "MB",
             uv::obs::Direction::kLowerIsBetter);
  return run.Finish();
}
