#include "autograd/variable.h"

#include <atomic>
#include <vector>

#include "autograd/graph_arena.h"
#include "obs/trace.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"

namespace uv::ag {

void Variable::AccumGrad(const Tensor& g) {
  UV_CHECK(g.rows() == value.rows() && g.cols() == value.cols());
  if (grad.empty() && g.size() > 0) {
    grad = g;  // First contribution: one memcpy, no zero-fill + add pass.
    return;
  }
  Axpy(1.0f, g, &grad);
}

void Variable::AccumGrad(Tensor&& g) {
  UV_CHECK(g.rows() == value.rows() && g.cols() == value.cols());
  if (grad.empty() && g.size() > 0) {
    grad = std::move(g);  // First contribution: steal the slab outright.
    return;
  }
  Axpy(1.0f, g, &grad);
}

Tensor& Variable::EnsureGrad() {
  if (grad.empty() && value.size() > 0) {
    grad = Tensor(value.rows(), value.cols());
  }
  return grad;
}

VarPtr MakeParam(Tensor value) {
  return std::allocate_shared<Variable>(GraphArena<Variable>{},
                                        std::move(value),
                                        /*requires_grad_in=*/true);
}

VarPtr MakeConst(Tensor value) {
  return std::allocate_shared<Variable>(GraphArena<Variable>{},
                                        std::move(value),
                                        /*requires_grad_in=*/false);
}

namespace {
thread_local bool grad_enabled = true;
}  // namespace

NoGradScope::NoGradScope() : outer_(grad_enabled) { grad_enabled = false; }

NoGradScope::~NoGradScope() { grad_enabled = outer_; }

bool GradEnabled() { return grad_enabled; }

VarPtr MakeOp(Tensor value, VarList inputs, BackwardFn backward_fn,
              const char* name) {
  bool needs_grad = false;
  for (const auto& in : inputs) {
    if (in && NeedsGrad(*in)) {
      needs_grad = true;
      break;
    }
  }
  auto out = std::allocate_shared<Variable>(GraphArena<Variable>{},
                                            std::move(value), needs_grad);
  if (needs_grad) {
    out->inputs = std::move(inputs);
    out->backward_fn = std::move(backward_fn);
  }
  out->op_name = name;
  return out;
}

void Backward(const VarPtr& loss) {
  UV_CHECK(loss != nullptr);
  UV_CHECK_EQ(loss->value.rows(), 1);
  UV_CHECK_EQ(loss->value.cols(), 1);
  obs::SpanGuard span("backward", obs::SpanLevel::kCoarse);

  // Iterative post-order DFS to get a topological order of the subgraph of
  // nodes that require gradients. Visited-tracking uses a process-unique
  // stamp per traversal (every node belongs to exactly one graph, so
  // concurrent Backward calls on different graphs never share nodes), and
  // the traversal vectors keep their capacity across calls — a
  // steady-state backward pass performs no heap allocation here.
  static std::atomic<uint64_t> traversal_counter{0};
  const uint64_t mark =
      traversal_counter.fetch_add(1, std::memory_order_relaxed) + 1;
  struct Frame {
    Variable* node;
    size_t next_child;
  };
  thread_local std::vector<Variable*> topo;
  thread_local std::vector<Frame> stack;
  topo.clear();
  stack.clear();
  if (loss->requires_grad) {
    stack.push_back({loss.get(), 0});
    loss->visit_mark = mark;
  }
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_child < frame.node->inputs.size()) {
      Variable* child = frame.node->inputs[frame.next_child++].get();
      if (child != nullptr && child->requires_grad &&
          child->visit_mark != mark) {
        child->visit_mark = mark;
        stack.push_back({child, 0});
      }
    } else {
      topo.push_back(frame.node);
      stack.pop_back();
    }
  }

  Tensor seed(1, 1);
  seed.at(0, 0) = 1.0f;
  loss->AccumGrad(std::move(seed));

  // topo is post-order (children first); iterate in reverse for backward.
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    Variable* node = *it;
    if (node->backward_fn && !node->grad.empty()) {
      node->backward_fn(node);
    }
  }
}

void ZeroGrads(const std::vector<VarPtr>& vars) {
  for (const auto& v : vars) {
    if (v && !v->grad.empty()) v->grad.Zero();
  }
}

}  // namespace uv::ag
