#ifndef UV_BENCH_LEGS_H_
#define UV_BENCH_LEGS_H_

#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/report.h"

namespace uv::bench {

// The bench_suite legs that run alone. Each prints its results on stdout
// and returns its ledger, whose suite is the leg's name.

// The paper's evaluation (Section VI), one leg per table or figure:
// table1, table2, table3, fig5a, fig5b, fig6a, fig6b, fig6c, fig7.
const std::vector<std::string>& PaperLegNames();
obs::Report RunPaperLeg(const std::string& name, const BenchConfig& bench);

// --alloc (alloc.cc): heap allocations per CMSF training step with the
// BufferPool off and on, then per steady-state engine request. *passed is
// false unless the pool cuts allocations per step by at least 10x and
// every request size stays at or below 5 allocations per request.
obs::Report RunAllocLeg(BenchConfig bench, bool* passed);

// --scaling (scaling.cc): thread-scaling curves at 1/2/4/N threads. *passed
// is false unless the cross-validation metrics are bit-identical across
// thread counts.
obs::Report RunScalingLeg(BenchConfig bench, bool* passed);

}  // namespace uv::bench

#endif  // UV_BENCH_LEGS_H_
