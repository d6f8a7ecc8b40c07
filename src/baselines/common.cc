#include "baselines/common.h"

namespace uv::baselines {

int64_t CountParams(const std::vector<ag::VarPtr>& params) {
  int64_t total = 0;
  for (const auto& p : params) total += p->value.size();
  return total;
}

}  // namespace uv::baselines
