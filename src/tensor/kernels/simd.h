#ifndef UV_TENSOR_KERNELS_SIMD_H_
#define UV_TENSOR_KERNELS_SIMD_H_

#include <cmath>
#include <cstdint>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define UV_SIMD_HAS_AVX2_TU 1
#endif

namespace uv::kern {

// ---------------------------------------------------------------------------
// Fixed-width 8-lane f32 vector wrappers. The kernel bodies in
// kernels_impl.h are templates over one of these types, so a new ISA
// (NEON would pair two float32x4_t) is a new struct here plus an explicit
// instantiation TU — the kernels themselves never change.
//
// Both types expose the same static-function surface:
//   Zero, Broadcast, Load, Gather, Store, Add, Sub, Mul, Fma(a,b,c)=a*b+c,
//   Max(a,b)=a>b?a:b, SelectGt(x,y,a,b)=x>y?a:b, ReduceSum, ReduceMax,
//   Transpose8, kLanes.
// ReduceSum uses the same fixed pairwise tree in both backends
// ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)) so that a lane-for-lane identical
// vector reduces to a bit-identical scalar regardless of backend.
// ---------------------------------------------------------------------------

// Portable fallback: a plain 8-float struct. Compilers unroll the fixed
// lane loops, but the semantics are exactly sequential scalar float math —
// no FMA contraction is implied (an fp-contract build may fuse, which is
// the per-build determinism the contract already allows).
struct ScalarF32x8 {
  static constexpr int kLanes = 8;
  float v[8];

  static ScalarF32x8 Zero() {
    ScalarF32x8 r;
    for (int i = 0; i < kLanes; ++i) r.v[i] = 0.0f;
    return r;
  }
  static ScalarF32x8 Broadcast(float x) {
    ScalarF32x8 r;
    for (int i = 0; i < kLanes; ++i) r.v[i] = x;
    return r;
  }
  static ScalarF32x8 Load(const float* p) {
    ScalarF32x8 r;
    for (int i = 0; i < kLanes; ++i) r.v[i] = p[i];
    return r;
  }
  // Lane i = p[idx[i]].
  static ScalarF32x8 Gather(const float* p, const int* idx) {
    ScalarF32x8 r;
    for (int i = 0; i < kLanes; ++i) r.v[i] = p[idx[i]];
    return r;
  }
  static void Store(float* p, ScalarF32x8 x) {
    for (int i = 0; i < kLanes; ++i) p[i] = x.v[i];
  }
  static ScalarF32x8 Add(ScalarF32x8 a, ScalarF32x8 b) {
    ScalarF32x8 r;
    for (int i = 0; i < kLanes; ++i) r.v[i] = a.v[i] + b.v[i];
    return r;
  }
  static ScalarF32x8 Sub(ScalarF32x8 a, ScalarF32x8 b) {
    ScalarF32x8 r;
    for (int i = 0; i < kLanes; ++i) r.v[i] = a.v[i] - b.v[i];
    return r;
  }
  static ScalarF32x8 Mul(ScalarF32x8 a, ScalarF32x8 b) {
    ScalarF32x8 r;
    for (int i = 0; i < kLanes; ++i) r.v[i] = a.v[i] * b.v[i];
    return r;
  }
  static ScalarF32x8 Fma(ScalarF32x8 a, ScalarF32x8 b, ScalarF32x8 c) {
    ScalarF32x8 r;
    for (int i = 0; i < kLanes; ++i) r.v[i] = a.v[i] * b.v[i] + c.v[i];
    return r;
  }
  static ScalarF32x8 Max(ScalarF32x8 a, ScalarF32x8 b) {
    ScalarF32x8 r;
    for (int i = 0; i < kLanes; ++i) r.v[i] = a.v[i] > b.v[i] ? a.v[i] : b.v[i];
    return r;
  }
  static ScalarF32x8 SelectGt(ScalarF32x8 x, ScalarF32x8 y, ScalarF32x8 a,
                              ScalarF32x8 b) {
    ScalarF32x8 r;
    for (int i = 0; i < kLanes; ++i) r.v[i] = x.v[i] > y.v[i] ? a.v[i] : b.v[i];
    return r;
  }
  static float ReduceSum(ScalarF32x8 a) {
    return ((a.v[0] + a.v[4]) + (a.v[2] + a.v[6])) +
           ((a.v[1] + a.v[5]) + (a.v[3] + a.v[7]));
  }
  static float ReduceMax(ScalarF32x8 a) {
    float m = a.v[0];
    for (int i = 1; i < kLanes; ++i) m = a.v[i] > m ? a.v[i] : m;
    return m;
  }
  // Transposes the 8 x 8 block whose rows are rows[0..7], in place.
  static void Transpose8(ScalarF32x8* rows) {
    for (int i = 0; i < kLanes; ++i) {
      for (int j = i + 1; j < kLanes; ++j) {
        const float t = rows[i].v[j];
        rows[i].v[j] = rows[j].v[i];
        rows[j].v[i] = t;
      }
    }
  }
};

#if defined(UV_SIMD_HAS_AVX2_TU)
// AVX2 + FMA. Loads/stores are unaligned (loadu/storeu): the pool hands out
// 64-byte-aligned bases but row strides are arbitrary, and on this
// microarchitecture loadu on aligned data costs the same as load.
struct Avx2F32x8 {
  static constexpr int kLanes = 8;
  __m256 v;

  static Avx2F32x8 Zero() { return {_mm256_setzero_ps()}; }
  static Avx2F32x8 Broadcast(float x) { return {_mm256_set1_ps(x)}; }
  static Avx2F32x8 Load(const float* p) { return {_mm256_loadu_ps(p)}; }
  static Avx2F32x8 Gather(const float* p, const int* idx) {
    const __m256i i =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx));
    return {_mm256_i32gather_ps(p, i, sizeof(float))};
  }
  static void Store(float* p, Avx2F32x8 x) { _mm256_storeu_ps(p, x.v); }
  static Avx2F32x8 Add(Avx2F32x8 a, Avx2F32x8 b) {
    return {_mm256_add_ps(a.v, b.v)};
  }
  static Avx2F32x8 Sub(Avx2F32x8 a, Avx2F32x8 b) {
    return {_mm256_sub_ps(a.v, b.v)};
  }
  static Avx2F32x8 Mul(Avx2F32x8 a, Avx2F32x8 b) {
    return {_mm256_mul_ps(a.v, b.v)};
  }
  static Avx2F32x8 Fma(Avx2F32x8 a, Avx2F32x8 b, Avx2F32x8 c) {
    return {_mm256_fmadd_ps(a.v, b.v, c.v)};
  }
  static Avx2F32x8 Max(Avx2F32x8 a, Avx2F32x8 b) {
    return {_mm256_max_ps(a.v, b.v)};
  }
  // The ordered compare is false on NaN, as the scalar x > y is.
  static Avx2F32x8 SelectGt(Avx2F32x8 x, Avx2F32x8 y, Avx2F32x8 a,
                            Avx2F32x8 b) {
    return {_mm256_blendv_ps(b.v, a.v, _mm256_cmp_ps(x.v, y.v, _CMP_GT_OQ))};
  }
  static float ReduceSum(Avx2F32x8 a) {
    // Same fixed tree as ScalarF32x8::ReduceSum: hadd within 128-bit halves
    // pairs (l0+l1, l2+l3 | l4+l5, l6+l7)... but that tree differs from the
    // scalar one, so do it with explicit shuffles instead:
    // lo = (l0,l1,l2,l3), hi = (l4,l5,l6,l7); s = lo + hi gives (l0+l4,
    // l1+l5, l2+l6, l3+l7); then ((s0 + s2) + (s1 + s3)) matches
    // ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)).
    __m128 lo = _mm256_castps256_ps128(a.v);
    __m128 hi = _mm256_extractf128_ps(a.v, 1);
    __m128 s = _mm_add_ps(lo, hi);
    __m128 shuf = _mm_movehl_ps(s, s);       // (s2, s3, -, -)
    __m128 sums = _mm_add_ps(s, shuf);       // (s0+s2, s1+s3, -, -)
    __m128 final_shuf = _mm_shuffle_ps(sums, sums, 0x1);
    return _mm_cvtss_f32(_mm_add_ss(sums, final_shuf));
  }
  static float ReduceMax(Avx2F32x8 a) {
    __m128 lo = _mm256_castps256_ps128(a.v);
    __m128 hi = _mm256_extractf128_ps(a.v, 1);
    __m128 m = _mm_max_ps(lo, hi);
    m = _mm_max_ps(m, _mm_movehl_ps(m, m));
    m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 0x1));
    return _mm_cvtss_f32(m);
  }
  static void Transpose8(Avx2F32x8* rows) {
    // Interleave pairs of rows, then pairs of pairs within each 128-bit
    // half, then swap the halves: row i ends up holding column i.
    __m256 t[8], s[8];
    for (int i = 0; i < 8; i += 2) {
      t[i] = _mm256_unpacklo_ps(rows[i].v, rows[i + 1].v);
      t[i + 1] = _mm256_unpackhi_ps(rows[i].v, rows[i + 1].v);
    }
    for (int i = 0; i < 8; i += 4) {
      s[i] = _mm256_shuffle_ps(t[i], t[i + 2], 0x44);
      s[i + 1] = _mm256_shuffle_ps(t[i], t[i + 2], 0xEE);
      s[i + 2] = _mm256_shuffle_ps(t[i + 1], t[i + 3], 0x44);
      s[i + 3] = _mm256_shuffle_ps(t[i + 1], t[i + 3], 0xEE);
    }
    for (int i = 0; i < 4; ++i) {
      rows[i].v = _mm256_permute2f128_ps(s[i], s[i + 4], 0x20);
      rows[i + 4].v = _mm256_permute2f128_ps(s[i], s[i + 4], 0x31);
    }
  }
};
#endif  // UV_SIMD_HAS_AVX2_TU

}  // namespace uv::kern

#endif  // UV_TENSOR_KERNELS_SIMD_H_
