#ifndef UV_AUTOGRAD_VARIABLE_H_
#define UV_AUTOGRAD_VARIABLE_H_

#include <cstddef>
#include <initializer_list>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <utility>

#include "tensor/tensor.h"
#include "util/check.h"

namespace uv::ag {

class Variable;
using VarPtr = std::shared_ptr<Variable>;

// Move-only type-erased callable with fixed inline storage: the backward
// closure of every op lives inside its Variable instead of in a separate
// std::function heap allocation, so graph nodes recycle as a single
// pool-sized block. Captures larger than kInlineBytes fail to compile —
// bump the constant rather than silently fall back to the heap.
class BackwardFn {
 public:
  static constexpr size_t kInlineBytes = 192;

  BackwardFn() noexcept = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, BackwardFn>>>
  BackwardFn(F&& f) {  // NOLINT(runtime/explicit)
    static_assert(sizeof(D) <= kInlineBytes,
                  "backward capture exceeds BackwardFn::kInlineBytes");
    static_assert(alignof(D) <= alignof(std::max_align_t),
                  "backward capture over-aligned for inline storage");
    static_assert(std::is_nothrow_move_constructible_v<D>,
                  "backward capture must be nothrow-movable");
    ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
    invoke_ = [](void* b, Variable* v) { (*static_cast<D*>(b))(v); };
    relocate_ = [](void* dst, void* src) {
      ::new (dst) D(std::move(*static_cast<D*>(src)));
      static_cast<D*>(src)->~D();
    };
    destroy_ = [](void* b) { static_cast<D*>(b)->~D(); };
  }

  BackwardFn(const BackwardFn&) = delete;
  BackwardFn& operator=(const BackwardFn&) = delete;
  BackwardFn(BackwardFn&& other) noexcept { MoveFrom(&other); }
  BackwardFn& operator=(BackwardFn&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(&other);
    }
    return *this;
  }
  ~BackwardFn() { Reset(); }

  explicit operator bool() const { return invoke_ != nullptr; }
  void operator()(Variable* v) { invoke_(buf_, v); }

  void Reset() {
    if (destroy_ != nullptr) destroy_(buf_);
    invoke_ = nullptr;
    relocate_ = nullptr;
    destroy_ = nullptr;
  }

 private:
  void MoveFrom(BackwardFn* other) {
    if (other->invoke_ == nullptr) return;
    other->relocate_(buf_, other->buf_);
    invoke_ = other->invoke_;
    relocate_ = other->relocate_;
    destroy_ = other->destroy_;
    other->invoke_ = nullptr;
    other->relocate_ = nullptr;
    other->destroy_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  void (*invoke_)(void*, Variable*) = nullptr;
  void (*relocate_)(void*, void*) = nullptr;
  void (*destroy_)(void*) = nullptr;
};

// Fixed-capacity input-edge list (ops have at most 8 inputs — GatedMlp).
// Inline storage keeps the whole graph node in one recycled block instead
// of a per-node std::vector allocation.
class VarList {
 public:
  static constexpr size_t kCapacity = 8;

  VarList() noexcept = default;
  VarList(std::initializer_list<VarPtr> init) {
    UV_CHECK_LE(init.size(), kCapacity);
    for (const VarPtr& p : init) items_[size_++] = p;
  }
  VarList(VarList&& other) noexcept : size_(other.size_) {
    for (size_t i = 0; i < size_; ++i) items_[i] = std::move(other.items_[i]);
    other.size_ = 0;
  }
  VarList& operator=(VarList&& other) noexcept {
    if (this != &other) {
      clear();
      size_ = other.size_;
      for (size_t i = 0; i < size_; ++i) {
        items_[i] = std::move(other.items_[i]);
      }
      other.size_ = 0;
    }
    return *this;
  }
  VarList(const VarList&) = delete;
  VarList& operator=(const VarList&) = delete;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void push_back(VarPtr p) {
    UV_CHECK_LT(size_, kCapacity);
    items_[size_++] = std::move(p);
  }
  VarPtr& operator[](size_t i) { return items_[i]; }
  const VarPtr& operator[](size_t i) const { return items_[i]; }
  VarPtr* begin() { return items_; }
  VarPtr* end() { return items_ + size_; }
  const VarPtr* begin() const { return items_; }
  const VarPtr* end() const { return items_ + size_; }

  void clear() {
    for (size_t i = 0; i < size_; ++i) items_[i].reset();
    size_ = 0;
  }

 private:
  VarPtr items_[kCapacity];
  size_t size_ = 0;
};

// A node in the reverse-mode autodiff graph. Holds a value tensor, the
// (lazily allocated) gradient accumulator, the input edges, and a backward
// function that reads this node's gradient and accumulates into the inputs'
// gradients. Graphs are built eagerly by the op constructors in ops.h;
// nodes and their tensors recycle through the BufferPool (see
// graph_arena.h), so steady-state steps rebuild the graph without heap
// traffic.
class Variable {
 public:
  Variable(Tensor value_in, bool requires_grad_in)
      : value(std::move(value_in)), requires_grad(requires_grad_in) {}

  Variable(const Variable&) = delete;
  Variable& operator=(const Variable&) = delete;

  Tensor value;
  Tensor grad;  // Empty until the first accumulation.
  bool requires_grad;
  VarList inputs;
  // Invoked once during Backward with this node as argument; must only
  // accumulate into inputs that have requires_grad set.
  BackwardFn backward_fn;
  const char* op_name = "leaf";
  // Traversal stamp owned by Backward: a node is visited when its mark
  // equals the current (process-unique) traversal id. Replaces a per-call
  // hash set so steady-state backward passes stay allocation-free.
  uint64_t visit_mark = 0;

  int rows() const { return value.rows(); }
  int cols() const { return value.cols(); }

  // Adds g into the gradient accumulator. The first accumulation into an
  // empty grad copies (lvalue) or steals (rvalue) g outright instead of
  // zero-filling and adding — one pass and zero allocations saved per
  // backward edge, bit-identical either way.
  void AccumGrad(const Tensor& g);
  void AccumGrad(Tensor&& g);

  // Returns the gradient, allocating a zero tensor if none accumulated
  // yet. Reacquired slabs are zeroed explicitly, so the accumulate-into
  // contract is unchanged whether the slab is fresh or recycled.
  Tensor& EnsureGrad();
};

// Creates a trainable leaf (requires_grad = true).
VarPtr MakeParam(Tensor value);

// Creates a constant leaf (requires_grad = false).
VarPtr MakeConst(Tensor value);

// Turns graph recording off for its lifetime: every op built under it
// computes its value with the same kernels as in grad mode but returns a
// constant node, with no inputs and no backward closure, so a forward that
// is never differentiated keeps no graph alive. Scopes nest; each restores
// the mode it found. The mode is per thread: a scope does not follow work
// into ParallelFor workers or other threads, and opening one never changes
// what ops built on another thread record.
class NoGradScope {
 public:
  NoGradScope();
  ~NoGradScope();
  NoGradScope(const NoGradScope&) = delete;
  NoGradScope& operator=(const NoGradScope&) = delete;

 private:
  bool outer_;
};

// False while a NoGradScope is open on the calling thread.
bool GradEnabled();

// Whether an op built now would pass gradient back into v. Ops test it
// before precomputing state that only their backward reads.
inline bool NeedsGrad(const Variable& v) {
  return v.requires_grad && GradEnabled();
}

// Internal helper for op implementations: creates a non-leaf node whose
// requires_grad is inherited from the inputs, or a constant node when no
// input requires grad or a NoGradScope is open.
VarPtr MakeOp(Tensor value, VarList inputs, BackwardFn backward_fn,
              const char* name);

// Runs reverse-mode differentiation from a scalar (1x1) loss node. Gradients
// accumulate into every reachable node with requires_grad.
void Backward(const VarPtr& loss);

// Clears gradients on the given variables (typically the parameter list).
void ZeroGrads(const std::vector<VarPtr>& vars);

}  // namespace uv::ag

#endif  // UV_AUTOGRAD_VARIABLE_H_
