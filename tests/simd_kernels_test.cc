#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "eval/runner.h"
#include "tensor/kernels/kernel_dispatch.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
#include "test_helpers.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace uv {
namespace {

// ---------------------------------------------------------------------------
// Dispatch-level kernel tests: every KernelDispatch entry against a plain
// scalar reference, on awkward sizes (vector tails of 1..15 lanes) and
// misaligned bases, for every backend this machine can run; then
// scalar-vs-avx2 parity, per-backend bit-identity across thread counts,
// and an end-to-end train-metric parity run.
// ---------------------------------------------------------------------------

std::vector<kern::Backend> AvailableBackends() {
  std::vector<kern::Backend> backends{kern::Backend::kScalar};
  if (kern::BackendAvailable(kern::Backend::kAvx2)) {
    backends.push_back(kern::Backend::kAvx2);
  }
  return backends;
}

const char* Name(kern::Backend b) {
  return b == kern::Backend::kAvx2 ? "avx2" : "scalar";
}

// Restores the previous backend (and with it the UV_SIMD resolution) when
// the scope ends, so test order never leaks a forced backend.
class BackendScope {
 public:
  explicit BackendScope(kern::Backend b) : prev_(kern::ActiveBackend()) {
    kern::SetActiveBackend(b);
  }
  ~BackendScope() { kern::SetActiveBackend(prev_); }

 private:
  kern::Backend prev_;
};

// Deterministic fill that exercises signs, magnitudes, and exact zeros.
void FillPattern(float* p, int64_t n, uint64_t salt) {
  Rng rng(977 + salt);
  for (int64_t i = 0; i < n; ++i) {
    const float v = static_cast<float>(rng.Uniform() * 4.0 - 2.0);
    p[i] = (i % 13 == 7) ? 0.0f : v;
  }
}

// Sizes straddling every tail length 0..15 plus a couple of larger spans.
std::vector<int64_t> AwkwardSizes() {
  std::vector<int64_t> sizes;
  for (int64_t n = 1; n <= 33; ++n) sizes.push_back(n);
  sizes.push_back(100);
  sizes.push_back(1003);
  return sizes;
}

TEST(SimdKernelsTest, AxpyMatchesReferenceOnAwkwardSizesAndOffsets) {
  for (const kern::Backend backend : AvailableBackends()) {
    BackendScope scope(backend);
    const kern::KernelDispatch& k = kern::Active();
    for (const int64_t n : AwkwardSizes()) {
      for (const int64_t offset : {0, 1, 3}) {
        std::vector<float> x(n + offset), y(n + offset), ref(n + offset);
        FillPattern(x.data(), n + offset, 1);
        FillPattern(y.data(), n + offset, 2);
        ref = y;
        k.axpy(0.7f, x.data() + offset, y.data() + offset, n);
        for (int64_t i = 0; i < n; ++i) {
          const double want = static_cast<double>(ref[offset + i]) +
                              0.7 * static_cast<double>(x[offset + i]);
          EXPECT_NEAR(y[offset + i], want, 1e-5)
              << Name(backend) << " n=" << n << " off=" << offset
              << " i=" << i;
        }
      }
    }
  }
}

TEST(SimdKernelsTest, MulScaleAddRowVectorAreBitExact) {
  // mul / scale / the bias row add are single-operation-per-element
  // kernels: IEEE gives one correctly rounded answer, so every backend
  // must match the scalar expression bit for bit.
  for (const kern::Backend backend : AvailableBackends()) {
    BackendScope scope(backend);
    const kern::KernelDispatch& k = kern::Active();
    for (const int64_t n : AwkwardSizes()) {
      std::vector<float> a(n), b(n), out(n);
      FillPattern(a.data(), n, 3);
      FillPattern(b.data(), n, 4);
      k.mul(a.data(), b.data(), out.data(), n);
      for (int64_t i = 0; i < n; ++i) {
        EXPECT_EQ(out[i], a[i] * b[i]) << Name(backend) << " n=" << n;
      }
      std::vector<float> s = a;
      k.scale(s.data(), -1.375f, n);
      for (int64_t i = 0; i < n; ++i) {
        EXPECT_EQ(s[i], a[i] * -1.375f) << Name(backend) << " n=" << n;
      }
    }
    const int64_t rows = 5, cols = 19;
    std::vector<float> m(rows * cols), v(cols);
    FillPattern(m.data(), rows * cols, 5);
    FillPattern(v.data(), cols, 6);
    std::vector<float> ref = m;
    k.add_row_vector(v.data(), m.data(), rows, cols);
    for (int64_t r = 0; r < rows; ++r) {
      for (int64_t c = 0; c < cols; ++c) {
        EXPECT_EQ(m[r * cols + c], ref[r * cols + c] + v[c])
            << Name(backend) << " r=" << r << " c=" << c;
      }
    }
  }
}

TEST(SimdKernelsTest, MaxAbsDiffMatchesReferenceExactly) {
  for (const kern::Backend backend : AvailableBackends()) {
    BackendScope scope(backend);
    const kern::KernelDispatch& k = kern::Active();
    for (const int64_t n : AwkwardSizes()) {
      std::vector<float> a(n), b(n);
      FillPattern(a.data(), n, 7);
      FillPattern(b.data(), n, 8);
      float want = 0.0f;
      for (int64_t i = 0; i < n; ++i) {
        want = std::max(want, std::fabs(a[i] - b[i]));
      }
      EXPECT_EQ(k.max_abs_diff(a.data(), b.data(), n), want)
          << Name(backend) << " n=" << n;
    }
  }
}

TEST(SimdKernelsTest, RowSoftmaxMatchesReferenceAndSumsToOne) {
  for (const kern::Backend backend : AvailableBackends()) {
    BackendScope scope(backend);
    const kern::KernelDispatch& k = kern::Active();
    for (const int64_t cols : {1, 7, 20, 50}) {
      const int64_t rows = 4;
      std::vector<float> in(rows * cols), out(rows * cols);
      FillPattern(in.data(), rows * cols, 9);
      const float temperature = 0.5f;
      k.row_softmax(in.data(), out.data(), rows, cols, 1.0f / temperature);
      for (int64_t r = 0; r < rows; ++r) {
        double mx = -1e300;
        for (int64_t c = 0; c < cols; ++c) {
          mx = std::max(mx, static_cast<double>(in[r * cols + c]) /
                                temperature);
        }
        double total = 0.0;
        std::vector<double> ref(cols);
        for (int64_t c = 0; c < cols; ++c) {
          ref[c] = std::exp(in[r * cols + c] / temperature - mx);
          total += ref[c];
        }
        double sum = 0.0;
        for (int64_t c = 0; c < cols; ++c) {
          EXPECT_NEAR(out[r * cols + c], ref[c] / total, 1e-5)
              << Name(backend) << " cols=" << cols;
          sum += out[r * cols + c];
        }
        EXPECT_NEAR(sum, 1.0, 1e-5);
      }
    }
  }
}

TEST(SimdKernelsTest, RowL2NormalizeMatchesReferenceAndSkipsZeroRows) {
  for (const kern::Backend backend : AvailableBackends()) {
    BackendScope scope(backend);
    const kern::KernelDispatch& k = kern::Active();
    const int64_t rows = 3, cols = 21;
    std::vector<float> m(rows * cols);
    FillPattern(m.data(), rows * cols, 10);
    for (int64_t c = 0; c < cols; ++c) m[1 * cols + c] = 0.0f;  // Zero row.
    std::vector<float> ref = m;
    k.row_l2_normalize(m.data(), rows, cols);
    for (int64_t r = 0; r < rows; ++r) {
      double norm = 0.0;
      for (int64_t c = 0; c < cols; ++c) {
        norm += static_cast<double>(ref[r * cols + c]) * ref[r * cols + c];
      }
      norm = std::sqrt(norm);
      for (int64_t c = 0; c < cols; ++c) {
        const double want =
            norm < 1e-12 ? ref[r * cols + c] : ref[r * cols + c] / norm;
        EXPECT_NEAR(m[r * cols + c], want, 1e-5)
            << Name(backend) << " r=" << r << " c=" << c;
      }
    }
  }
}

TEST(SimdKernelsTest, BiasActRowsMatchesUnfusedFormulas) {
  using kern::Activation;
  for (const kern::Backend backend : AvailableBackends()) {
    BackendScope scope(backend);
    const kern::KernelDispatch& k = kern::Active();
    const int64_t rows = 4, cols = 27;
    for (const Activation act :
         {Activation::kNone, Activation::kRelu, Activation::kLeakyRelu,
          Activation::kSigmoid}) {
      std::vector<float> m(rows * cols), bias(cols);
      FillPattern(m.data(), rows * cols, 11);
      FillPattern(bias.data(), cols, 12);
      std::vector<float> ref = m;
      const float slope = 0.2f;
      k.bias_act_rows(m.data(), bias.data(), rows, cols, act, slope);
      for (int64_t r = 0; r < rows; ++r) {
        for (int64_t c = 0; c < cols; ++c) {
          float x = ref[r * cols + c] + bias[c];
          switch (act) {
            case Activation::kNone:
              break;
            case Activation::kRelu:
              x = x > 0.0f ? x : 0.0f;
              break;
            case Activation::kLeakyRelu:
              x = x > 0.0f ? x : slope * x;
              break;
            case Activation::kSigmoid:
              x = x >= 0.0f ? 1.0f / (1.0f + std::exp(-x))
                            : std::exp(x) / (1.0f + std::exp(x));
              break;
          }
          EXPECT_NEAR(m[r * cols + c], x, 1e-6)
              << Name(backend) << " act=" << static_cast<int>(act);
        }
      }
    }
  }
}

// The two sigmoids against the expressions they replaced, bit for bit:
// the two-branch form used to call exp twice for a negative input, and the
// one-branch probability was written out at each detector. Inputs cover
// signed zeros, subnormals, a log sweep over +-[1e-8, 90], infinities and
// NaN; the GEMM epilogue must agree on every backend.
std::vector<float> SigmoidProbeInputs() {
  std::vector<float> xs = {0.0f,
                           -0.0f,
                           std::numeric_limits<float>::denorm_min(),
                           1e-40f,
                           std::numeric_limits<float>::min() / 2.0f,
                           std::numeric_limits<float>::infinity(),
                           std::numeric_limits<float>::quiet_NaN()};
  for (double x = 1e-8; x <= 90.0; x *= 1.01) {
    xs.push_back(static_cast<float>(x));
  }
  xs.push_back(90.0f);
  const size_t positive = xs.size();
  for (size_t i = 0; i < positive; ++i) xs.push_back(-xs[i]);
  return xs;
}

uint32_t Bits(float v) {
  uint32_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

TEST(SimdKernelsTest, SigmoidsMatchTheOldExpressionsBitForBit) {
  const std::vector<float> xs = SigmoidProbeInputs();
  std::vector<float> stable_ref(xs.size());
  for (size_t i = 0; i < xs.size(); ++i) {
    const float x = xs[i];
    stable_ref[i] = x >= 0.0f ? 1.0f / (1.0f + std::exp(-x))
                              : std::exp(x) / (1.0f + std::exp(x));
    const float plain_ref = 1.0f / (1.0f + std::exp(-x));
    EXPECT_EQ(Bits(kern::StableSigmoid(x)), Bits(stable_ref[i])) << x;
    EXPECT_EQ(Bits(kern::PlainSigmoid(x)), Bits(plain_ref)) << x;
  }
  const int64_t cols = static_cast<int64_t>(xs.size());
  for (const kern::Backend backend : AvailableBackends()) {
    BackendScope scope(backend);
    std::vector<float> m = xs;
    kern::Active().bias_act_rows(m.data(), nullptr, 1, cols,
                                 kern::Activation::kSigmoid, 0.0f);
    for (int64_t i = 0; i < cols; ++i) {
      EXPECT_EQ(Bits(m[i]), Bits(stable_ref[i]))
          << Name(backend) << " x=" << xs[i];
    }
  }
}

// Naive triple-loop reference with double accumulation.
Tensor NaiveGemm(bool ta, bool tb, float alpha, const Tensor& a,
                 const Tensor& b, float beta, const Tensor& c0) {
  const int m = ta ? a.cols() : a.rows();
  const int k = ta ? a.rows() : a.cols();
  const int n = tb ? b.rows() : b.cols();
  Tensor c = c0;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int p = 0; p < k; ++p) {
        const float av = ta ? a.at(p, i) : a.at(i, p);
        const float bv = tb ? b.at(j, p) : b.at(p, j);
        acc += static_cast<double>(av) * bv;
      }
      c.at(i, j) = alpha * static_cast<float>(acc) + beta * c0.at(i, j);
    }
  }
  return c;
}

TEST(SimdKernelsTest, PackedGemmMatchesNaiveForAllTransposeVariants) {
  Rng rng(31);
  for (const kern::Backend backend : AvailableBackends()) {
    BackendScope scope(backend);
    // Sizes chosen to hit partial microkernel tiles in both dimensions
    // (m % 6 != 0, n % 16 != 0) and a k crossing the kc=256 block edge.
    for (const auto& [m, k, n] : std::vector<std::array<int, 3>>{
             {1, 1, 1}, {3, 5, 7}, {6, 16, 16}, {7, 17, 19},
             {13, 33, 29}, {48, 300, 21}}) {
      for (const bool ta : {false, true}) {
        for (const bool tb : {false, true}) {
          Tensor a = ta ? Tensor(k, m) : Tensor(m, k);
          Tensor b = tb ? Tensor(n, k) : Tensor(k, n);
          Tensor c(m, n);
          a.RandomNormal(&rng, 1.0f);
          b.RandomNormal(&rng, 1.0f);
          c.RandomNormal(&rng, 1.0f);
          const Tensor want = NaiveGemm(ta, tb, 0.7f, a, b, 0.3f, c);
          Gemm(ta, tb, 0.7f, a, b, 0.3f, &c);
          float max_err = 0.0f;
          for (int64_t i = 0; i < c.size(); ++i) {
            max_err = std::max(max_err, std::fabs(c[i] - want[i]));
          }
          EXPECT_LT(max_err, 1e-3f)
              << Name(backend) << " m=" << m << " k=" << k << " n=" << n
              << " ta=" << ta << " tb=" << tb;
        }
      }
    }
  }
}

TEST(SimdKernelsTest, FusedEpilogueMatchesSeparateOps) {
  Rng rng(47);
  for (const kern::Backend backend : AvailableBackends()) {
    BackendScope scope(backend);
    const int m = 23, k = 17, n = 35;
    Tensor a(m, k), b(k, n), bias(1, n);
    a.RandomNormal(&rng, 1.0f);
    b.RandomNormal(&rng, 1.0f);
    bias.RandomNormal(&rng, 1.0f);
    Tensor fused(m, n);
    GemmBiasAct(false, false, 1.0f, a, b, 0.0f, &fused, &bias,
                kern::Activation::kRelu);
    Tensor separate(m, n);
    Gemm(false, false, 1.0f, a, b, 0.0f, &separate);
    AddRowVectorInPlace(bias, &separate);
    for (int64_t i = 0; i < separate.size(); ++i) {
      separate[i] = separate[i] > 0.0f ? separate[i] : 0.0f;
    }
    // Same backend, same accumulation order: the fusion only changes when
    // the bias/activation pass runs, not any arithmetic, so this is exact.
    EXPECT_EQ(0, std::memcmp(fused.data(), separate.data(),
                             static_cast<size_t>(fused.size()) *
                                 sizeof(float)))
        << Name(backend);
  }
}

TEST(SimdKernelsTest, ScalarVsAvx2ParityPerKernel) {
  if (!kern::BackendAvailable(kern::Backend::kAvx2)) {
    GTEST_SKIP() << "AVX2 backend unavailable on this machine";
  }
  Rng rng(53);
  const int m = 37, k = 61, n = 43;
  Tensor a(m, k), b(k, n), c0(m, n), bias(1, n);
  a.RandomNormal(&rng, 1.0f);
  b.RandomNormal(&rng, 1.0f);
  c0.RandomNormal(&rng, 1.0f);
  bias.RandomNormal(&rng, 1.0f);

  // FMA-reordering kernels agree to tolerance...
  Tensor gemm_scalar = c0, gemm_avx2 = c0;
  Tensor soft_scalar, soft_avx2, l2_scalar, l2_avx2;
  {
    BackendScope scope(kern::Backend::kScalar);
    GemmBiasAct(false, false, 1.0f, a, b, 1.0f, &gemm_scalar, &bias,
                kern::Activation::kLeakyRelu, 0.2f);
    soft_scalar = RowSoftmax(a, 2.0f);
    l2_scalar = RowL2Normalize(a);
  }
  {
    BackendScope scope(kern::Backend::kAvx2);
    GemmBiasAct(false, false, 1.0f, a, b, 1.0f, &gemm_avx2, &bias,
                kern::Activation::kLeakyRelu, 0.2f);
    soft_avx2 = RowSoftmax(a, 2.0f);
    l2_avx2 = RowL2Normalize(a);
  }
  EXPECT_LT(MaxAbsDiff(gemm_scalar, gemm_avx2), 1e-4f);
  EXPECT_LT(MaxAbsDiff(soft_scalar, soft_avx2), 1e-6f);
  EXPECT_LT(MaxAbsDiff(l2_scalar, l2_avx2), 1e-5f);

  // ...single-rounding kernels agree exactly.
  Tensor mul_scalar, mul_avx2;
  float mad_scalar = 0.0f, mad_avx2 = 0.0f;
  {
    BackendScope scope(kern::Backend::kScalar);
    mul_scalar = Mul(c0, gemm_scalar);
    mad_scalar = MaxAbsDiff(c0, gemm_scalar);
  }
  {
    BackendScope scope(kern::Backend::kAvx2);
    mul_avx2 = Mul(c0, gemm_scalar);
    mad_avx2 = MaxAbsDiff(c0, gemm_scalar);
  }
  EXPECT_EQ(0, std::memcmp(mul_scalar.data(), mul_avx2.data(),
                           static_cast<size_t>(mul_scalar.size()) *
                               sizeof(float)));
  EXPECT_EQ(mad_scalar, mad_avx2);
}

TEST(SimdKernelsTest, PerBackendBitIdenticalAcrossThreadCounts) {
  Rng rng(59);
  // Big enough that every dispatched op takes its parallel path.
  const int m = 160, k = 300, n = 96;
  Tensor a(m, k), b(k, n), bias(1, n);
  a.RandomNormal(&rng, 1.0f);
  b.RandomNormal(&rng, 1.0f);
  bias.RandomNormal(&rng, 1.0f);
  for (const kern::Backend backend : AvailableBackends()) {
    BackendScope scope(backend);
    Tensor c1(m, n), c4(m, n);
    Tensor s1, s4;
    ThreadPool::SetGlobalThreads(1);
    GemmBiasAct(false, false, 1.0f, a, b, 0.0f, &c1, &bias,
                kern::Activation::kRelu);
    s1 = RowSoftmax(a, 0.7f);
    ThreadPool::SetGlobalThreads(4);
    GemmBiasAct(false, false, 1.0f, a, b, 0.0f, &c4, &bias,
                kern::Activation::kRelu);
    s4 = RowSoftmax(a, 0.7f);
    ThreadPool::SetGlobalThreads(ThreadPool::NumThreadsFromEnv());
    EXPECT_EQ(0, std::memcmp(c1.data(), c4.data(),
                             static_cast<size_t>(c1.size()) * sizeof(float)))
        << Name(backend);
    EXPECT_EQ(0, std::memcmp(s1.data(), s4.data(),
                             static_cast<size_t>(s1.size()) * sizeof(float)))
        << Name(backend);
  }
}

// End-to-end: the quickstart-style train/eval path must report the same
// metrics on both backends up to float-accumulation divergence (documented
// tolerance: AUC within 0.05 on the tiny test city; the backends follow
// different-but-equally-valid float trajectories over many SGD steps).
TEST(SimdKernelsTest, TrainMetricParityAcrossBackends) {
  if (!kern::BackendAvailable(kern::Backend::kAvx2)) {
    GTEST_SKIP() << "AVX2 backend unavailable on this machine";
  }
  const urg::UrbanRegionGraph urg = uv::testing::TinyUrg();
  auto run = [&urg]() {
    eval::RunnerOptions options;
    options.num_folds = 2;
    options.num_runs = 1;
    options.block_size = 8;
    const auto factory = [](uint64_t seed) {
      baselines::TrainOptions train;
      train.epochs = 25;
      train.learning_rate = 5e-3;
      train.seed = seed;
      return baselines::MakeDetector("MLP", train, core::CmsfConfig{});
    };
    return eval::RunCrossValidation(urg, factory, options);
  };
  double auc_scalar = 0.0, auc_avx2 = 0.0;
  {
    BackendScope scope(kern::Backend::kScalar);
    auc_scalar = run().auc.mean;
  }
  {
    BackendScope scope(kern::Backend::kAvx2);
    auc_avx2 = run().auc.mean;
  }
  EXPECT_GT(auc_scalar, 0.5);
  EXPECT_NEAR(auc_scalar, auc_avx2, 0.05);
}

}  // namespace
}  // namespace uv
