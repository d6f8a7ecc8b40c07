#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "autograd/grad_check.h"
#include "autograd/ops.h"
#include "tensor/forward_ops.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace uv::ag {
namespace {

Tensor RandomTensor(int r, int c, uint64_t seed) {
  Rng rng(seed);
  Tensor t(r, c);
  t.RandomNormal(&rng, 1.0f);
  return t;
}

// Direct convolution reference (no im2col) for one sample.
float NaiveConvAt(const Tensor& x, const Tensor& w, const Tensor& b, int img,
                  const Conv2dSpec& s, int oc, int oy, int ox) {
  float acc = b.at(0, oc);
  const float* image = x.row(img);
  for (int c = 0; c < s.in_channels; ++c) {
    for (int ky = 0; ky < s.kernel; ++ky) {
      for (int kx = 0; kx < s.kernel; ++kx) {
        const int iy = oy * s.stride + ky - s.pad;
        const int ix = ox * s.stride + kx - s.pad;
        if (iy < 0 || iy >= s.in_h || ix < 0 || ix >= s.in_w) continue;
        const float xv = image[(c * s.in_h + iy) * s.in_w + ix];
        const float wv = w.at(oc, (c * s.kernel + ky) * s.kernel + kx);
        acc += xv * wv;
      }
    }
  }
  return acc;
}

// The per-element im2col the raw kernel replaced: every tap bounds-tests
// its pixel. Kept as the reference the hoisted Im2Col must reproduce.
void ReferenceIm2Col(const float* img, const Conv2dSpec& s, Tensor* col) {
  const int oh = s.out_h(), ow = s.out_w();
  for (int c = 0; c < s.in_channels; ++c) {
    const float* plane = img + static_cast<size_t>(c) * s.in_h * s.in_w;
    for (int ky = 0; ky < s.kernel; ++ky) {
      for (int kx = 0; kx < s.kernel; ++kx) {
        const int row = (c * s.kernel + ky) * s.kernel + kx;
        float* dst = col->row(row);
        for (int oy = 0; oy < oh; ++oy) {
          const int iy = oy * s.stride + ky - s.pad;
          for (int ox = 0; ox < ow; ++ox) {
            const int ix = ox * s.stride + kx - s.pad;
            const int out_idx = oy * ow + ox;
            dst[out_idx] = (iy >= 0 && iy < s.in_h && ix >= 0 && ix < s.in_w)
                               ? plane[iy * s.in_w + ix]
                               : 0.0f;
          }
        }
      }
    }
  }
}

bool SameBytes(const float* a, const float* b, size_t count) {
  return std::memcmp(a, b, sizeof(float) * count) == 0;
}

TEST(Conv2dTest, OutputShape) {
  Conv2dSpec s{3, 8, 8, 4, 3, 1, 1};
  EXPECT_EQ(s.out_h(), 8);
  EXPECT_EQ(s.out_w(), 8);
  Conv2dSpec s2{3, 8, 8, 4, 3, 2, 0};
  EXPECT_EQ(s2.out_h(), 3);
}

class Conv2dForwardTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(Conv2dForwardTest, MatchesNaiveReference) {
  const auto [stride, pad, out_c] = GetParam();
  Conv2dSpec s{2, 6, 6, out_c, 3, stride, pad};
  if (s.out_h() <= 0 || s.out_w() <= 0) GTEST_SKIP();
  auto x = MakeConst(RandomTensor(2, 2 * 6 * 6, 1));
  auto w = MakeConst(RandomTensor(out_c, 2 * 9, 2));
  auto b = MakeConst(RandomTensor(1, out_c, 3));
  auto y = Conv2d(x, w, b, s);
  ASSERT_EQ(y->cols(), out_c * s.out_h() * s.out_w());
  for (int img = 0; img < 2; ++img) {
    for (int oc = 0; oc < out_c; ++oc) {
      for (int oy = 0; oy < s.out_h(); ++oy) {
        for (int ox = 0; ox < s.out_w(); ++ox) {
          const float expected =
              NaiveConvAt(x->value, w->value, b->value, img, s, oc, oy, ox);
          const float got =
              y->value.at(img, (oc * s.out_h() + oy) * s.out_w() + ox);
          ASSERT_NEAR(got, expected, 1e-4f)
              << "img=" << img << " oc=" << oc << " oy=" << oy
              << " ox=" << ox;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Geometry, Conv2dForwardTest,
                         ::testing::Combine(::testing::Values(1, 2),
                                            ::testing::Values(0, 1),
                                            ::testing::Values(1, 3)));

// (stride, pad, out_channels, kernel, (in_h, in_w)).
using RawForwardParam = std::tuple<int, int, int, int, std::tuple<int, int>>;

// Im2Col, Conv2dForwardImage (with and without ReLU) and ag::Conv2d
// against the reference im2col and one Gemm plus the bias, bit for bit.
void ExpectRawForwardMatchesReference(int in_channels,
                                      const RawForwardParam& param) {
  const auto [stride, pad, out_c, kernel, shape] = param;
  const auto [in_h, in_w] = shape;
  const Conv2dSpec s{in_channels, in_h, in_w, out_c, kernel, stride, pad};
  if (s.out_h() <= 0 || s.out_w() <= 0) GTEST_SKIP();
  const int patch = in_channels * kernel * kernel;
  const int plane = s.out_h() * s.out_w();
  const int out_cols = out_c * plane;
  const Tensor x = RandomTensor(3, in_channels * in_h * in_w, 31);
  const Tensor w = RandomTensor(out_c, patch, 32);
  const Tensor b = RandomTensor(1, out_c, 33);

  Tensor ref_col(patch, plane);
  Tensor col(patch, plane);
  Tensor prod(out_c, plane);
  Tensor packed;
  PackConv2dWeights(w, b, &packed);
  Conv2dWorkspace ws;
  std::vector<float> expected(out_cols), expected_relu(out_cols);
  std::vector<float> got(out_cols), got_relu(out_cols);
  const auto y = Conv2d(MakeConst(x), MakeConst(w), MakeConst(b), s);
  for (int img = 0; img < x.rows(); ++img) {
    ReferenceIm2Col(x.row(img), s, &ref_col);
    col.Fill(std::numeric_limits<float>::quiet_NaN());  // Every cell written.
    Im2Col(x.row(img), s, &col);
    ASSERT_TRUE(SameBytes(col.data(), ref_col.data(), col.size()))
        << "im2col, image " << img;

    Gemm(false, false, 1.0f, w, ref_col, 0.0f, &prod);
    for (int c = 0; c < out_c; ++c) {
      for (int p = 0; p < plane; ++p) {
        const float v = prod.at(c, p) + b.at(0, c);
        expected[c * plane + p] = v;
        expected_relu[c * plane + p] = v > 0.0f ? v : 0.0f;
      }
    }
    Conv2dForwardImage(x.row(img), s, packed, /*relu=*/false, &ws,
                       got.data());
    Conv2dForwardImage(x.row(img), s, packed, /*relu=*/true, &ws,
                       got_relu.data());
    EXPECT_TRUE(SameBytes(got.data(), expected.data(), out_cols))
        << "image " << img;
    EXPECT_TRUE(SameBytes(got_relu.data(), expected_relu.data(), out_cols))
        << "image " << img;
    EXPECT_TRUE(SameBytes(y->value.row(img), expected.data(), out_cols))
        << "ag::Conv2d, image " << img;
  }
}

// Two input channels: the Conv2dForwardTest grid plus kernels 1 and 5,
// pad 2, a non-square input, and output-channel counts that fill whole
// vectors (8, 32) or leave a vector tail (1, 3, 17).
class Conv2dRawForwardTest : public ::testing::TestWithParam<RawForwardParam> {
};

TEST_P(Conv2dRawForwardTest, MatchesReferenceIm2ColBitForBit) {
  ExpectRawForwardMatchesReference(2, GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Geometry, Conv2dRawForwardTest,
    ::testing::Combine(::testing::Values(1, 2), ::testing::Values(0, 1, 2),
                       ::testing::Values(1, 3, 8, 17, 32),
                       ::testing::Values(1, 3, 5),
                       ::testing::Values(std::make_tuple(6, 6),
                                         std::make_tuple(5, 7))));

// 32 input channels: K = 288 (3x3, MUVFCN's third layer) or 800 (5x5)
// taps exceed one kGemmKc block, so every output sums two or four blocks.
class Conv2dRawForwardKBlocksTest
    : public ::testing::TestWithParam<RawForwardParam> {};

TEST_P(Conv2dRawForwardKBlocksTest, MatchesReferenceIm2ColBitForBit) {
  static_assert(32 * 3 * 3 > kern::kGemmKc);
  ExpectRawForwardMatchesReference(32, GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Geometry, Conv2dRawForwardKBlocksTest,
    ::testing::Combine(::testing::Values(1, 2), ::testing::Values(0, 1, 2),
                       ::testing::Values(1, 8, 17, 32),
                       ::testing::Values(3, 5),
                       ::testing::Values(std::make_tuple(6, 6),
                                         std::make_tuple(5, 7))));

TEST(Conv2dTest, GradCheckSmall) {
  Conv2dSpec s{1, 4, 4, 2, 3, 1, 1};
  auto x = MakeParam(RandomTensor(2, 16, 10));
  auto w = MakeParam(RandomTensor(2, 9, 11));
  auto b = MakeParam(RandomTensor(1, 2, 12));
  auto result = CheckGradients({x, w, b}, [&]() {
    auto y = Conv2d(x, w, b, s);
    return SumAll(Mul(y, y));
  });
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(MaxPool2dTest, ForwardPicksMaximum) {
  // One 4x4 single-channel image.
  Tensor img(1, 16, {1, 2, 3, 4,
                     5, 6, 7, 8,
                     9, 10, 11, 12,
                     13, 14, 15, 16});
  auto y = MaxPool2d(MakeConst(img), 1, 4, 4, 2, 2);
  EXPECT_EQ(y->cols(), 4);
  EXPECT_FLOAT_EQ(y->value.at(0, 0), 6.0f);
  EXPECT_FLOAT_EQ(y->value.at(0, 1), 8.0f);
  EXPECT_FLOAT_EQ(y->value.at(0, 3), 16.0f);
}

TEST(MaxPool2dTest, BackwardRoutesToArgmax) {
  Tensor img(1, 16);
  img.at(0, 5) = 10.0f;  // Winner of the top-left window.
  auto x = MakeParam(img);
  auto loss = SumAll(MaxPool2d(x, 1, 4, 4, 2, 2));
  Backward(loss);
  EXPECT_FLOAT_EQ(x->grad.at(0, 5), 1.0f);
  EXPECT_FLOAT_EQ(x->grad.at(0, 0), 0.0f);
}

// The loop every max pool must reproduce byte for byte: each window tap by
// tap in row-major order, keeping `v > best ? v : best` from -inf.
void ReferenceMaxPool(const float* image, int channels, int h, int w,
                      int kernel, int stride, float* out) {
  const int oh = (h - kernel) / stride + 1;
  const int ow = (w - kernel) / stride + 1;
  for (int c = 0; c < channels; ++c) {
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        float best = -std::numeric_limits<float>::infinity();
        for (int ky = 0; ky < kernel; ++ky) {
          for (int kx = 0; kx < kernel; ++kx) {
            const float v =
                image[(c * h + oy * stride + ky) * w + ox * stride + kx];
            best = v > best ? v : best;
          }
        }
        out[(c * oh + oy) * ow + ox] = best;
      }
    }
  }
}

TEST(MaxPool2dTest, RawPoolSameValuesWithAndWithoutArgmax) {
  // Rounded values make ties common, and half the values are NaN, +0, -0
  // or -inf: a window keeps its first maximum (so its first zero), never
  // selects a NaN, and an all-NaN window gives -inf. The shapes give output
  // rows of fewer than, exactly and more than 8 outputs, odd heights and
  // widths, and partial last vectors. The suite also runs under
  // UV_SIMD=scalar, so both backends' kernels are held to the loop.
  const float kNan = std::numeric_limits<float>::quiet_NaN();
  const float kInf = std::numeric_limits<float>::infinity();
  const float specials[] = {kNan, 0.0f, -0.0f, -kInf};
  const int channels = 3;
  for (const auto& [h, w] : {std::make_tuple(7, 6), std::make_tuple(9, 21),
                             std::make_tuple(11, 17),
                             std::make_tuple(5, 37)}) {
    Tensor img = RandomTensor(1, channels * h * w, 34 + h);
    Rng rng(100 * h + w);
    for (int64_t i = 0; i < img.size(); ++i) {
      img[i] = std::round(img[i]);
      const int pick = rng.UniformInt(8);
      if (pick < 4) img[i] = specials[pick];
    }
    for (int ky = 0; ky < 3; ++ky) {
      for (int kx = 0; kx < 3; ++kx) img[ky * w + kx] = kNan;
    }
    for (const auto& [kernel, stride] :
         {std::make_tuple(2, 2), std::make_tuple(3, 1), std::make_tuple(2, 1),
          std::make_tuple(3, 2)}) {
      const int oh = (h - kernel) / stride + 1;
      const int ow = (w - kernel) / stride + 1;
      const int outs = channels * oh * ow;
      std::vector<float> expected(outs), with(outs), without(outs);
      std::vector<int> argmax(outs, -1);
      ReferenceMaxPool(img.data(), channels, h, w, kernel, stride,
                       expected.data());
      MaxPool2dImage(img.data(), channels, h, w, kernel, stride, with.data(),
                     argmax.data());
      MaxPool2dImage(img.data(), channels, h, w, kernel, stride,
                     without.data(), nullptr);
      const std::string shape = std::to_string(h) + "x" + std::to_string(w) +
                                " kernel " + std::to_string(kernel) +
                                " stride " + std::to_string(stride);
      EXPECT_TRUE(SameBytes(without.data(), expected.data(), outs)) << shape;
      EXPECT_TRUE(SameBytes(with.data(), expected.data(), outs)) << shape;
      EXPECT_EQ(expected[0], -kInf) << shape;  // The all-NaN window.
      for (int o = 0; o < outs; ++o) {
        ASSERT_GE(argmax[o], 0);
        ASSERT_LT(argmax[o], img.cols());
        if (std::isfinite(with[o])) {
          EXPECT_TRUE(SameBytes(&img[argmax[o]], &with[o], 1))
              << shape << " output " << o;
        }
      }
    }
  }
}

TEST(MaxPool2dTest, GradFreeCallMatchesGradCall) {
  // A constant input skips the argmax; a parameter builds it. Same values.
  const Tensor img = RandomTensor(5, 2 * 6 * 6, 35);
  const auto grad_free = MaxPool2d(MakeConst(img), 2, 6, 6, 2, 2);
  const auto with_grad = MaxPool2d(MakeParam(img), 2, 6, 6, 2, 2);
  ASSERT_EQ(grad_free->value.size(), with_grad->value.size());
  EXPECT_TRUE(SameBytes(grad_free->value.data(), with_grad->value.data(),
                        grad_free->value.size()));
}

TEST(MaxPool2dTest, GradCheck) {
  // Distinct values avoid argmax ties that would break differentiability.
  Tensor img(1, 2 * 16);
  Rng rng(13);
  std::vector<int> perm(32);
  for (int i = 0; i < 32; ++i) perm[i] = i;
  rng.Shuffle(&perm);
  for (int i = 0; i < 32; ++i) img[i] = perm[i] * 0.37f;
  auto x = MakeParam(img);
  auto result = CheckGradients({x}, [&]() {
    auto y = MaxPool2d(x, 2, 4, 4, 2, 2);
    return SumAll(Mul(y, y));
  });
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(GlobalAvgPoolTest, Forward) {
  Tensor img(1, 2 * 4, {1, 2, 3, 4, 10, 10, 10, 10});
  auto y = GlobalAvgPool(MakeConst(img), 2, 2, 2);
  EXPECT_EQ(y->cols(), 2);
  EXPECT_FLOAT_EQ(y->value.at(0, 0), 2.5f);
  EXPECT_FLOAT_EQ(y->value.at(0, 1), 10.0f);
}

TEST(GlobalAvgPoolTest, GradCheck) {
  auto x = MakeParam(RandomTensor(3, 2 * 9, 14));
  auto result = CheckGradients({x}, [&]() {
    auto y = GlobalAvgPool(x, 2, 3, 3);
    return SumAll(Mul(y, y));
  });
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(ConvStackTest, EndToEndGradCheck) {
  // conv -> relu -> pool -> gap -> squared sum, the MUVFCN-style path.
  Conv2dSpec s{1, 6, 6, 2, 3, 1, 1};
  auto x = MakeConst(RandomTensor(2, 36, 20));
  auto w = MakeParam(RandomTensor(2, 9, 21));
  auto b = MakeParam(RandomTensor(1, 2, 22));
  auto result = CheckGradients({w, b}, [&]() {
    auto y = Relu(Conv2d(x, w, b, s));
    y = MaxPool2d(y, 2, 6, 6, 2, 2);
    y = GlobalAvgPool(y, 2, 3, 3);
    return SumAll(Mul(y, y));
  });
  EXPECT_TRUE(result.ok) << result.detail;
}

}  // namespace
}  // namespace uv::ag
