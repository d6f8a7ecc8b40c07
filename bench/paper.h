#ifndef UV_BENCH_PAPER_H_
#define UV_BENCH_PAPER_H_

#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/report.h"

namespace uv::bench {

// The paper's evaluation (Section VI), one leg per table or figure:
// table1, table2, table3, fig5a, fig5b, fig6a, fig6b, fig6c, fig7.
const std::vector<std::string>& PaperLegNames();

// Runs one leg of PaperLegNames(): prints its tables on stdout and returns
// its ledger, whose suite is the leg's name.
obs::Report RunPaperLeg(const std::string& name, const BenchConfig& bench);

}  // namespace uv::bench

#endif  // UV_BENCH_PAPER_H_
