#include "baselines/common.h"

#include <algorithm>

#include "util/check.h"

namespace uv::baselines {

ag::VarPtr GatherConstRows(const Tensor& features,
                           const std::vector<int>& ids) {
  Tensor out(static_cast<int>(ids.size()), features.cols());
  for (size_t i = 0; i < ids.size(); ++i) {
    const int src = ids[i];
    UV_CHECK_GE(src, 0);
    UV_CHECK_LT(src, features.rows());
    std::copy(features.row(src), features.row(src) + features.cols(),
              out.row(static_cast<int>(i)));
  }
  return ag::MakeConst(std::move(out));
}

int64_t CountParams(const std::vector<ag::VarPtr>& params) {
  int64_t total = 0;
  for (const auto& p : params) total += p->value.size();
  return total;
}

}  // namespace uv::baselines
