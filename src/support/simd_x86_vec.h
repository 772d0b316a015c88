// Vector traits for the width-generic x86 fast-noise kernels
// (simd_noise_x86.inc).  Each x86 tier TU includes this header, selects one
// traits type and compiles the shared kernel source against it:
//
//   VecAvx2    4 x f64 in a ymm, masks are all-ones/all-zeros ymm lanes
//   VecAvx512  8 x f64 in a zmm, masks are __mmask8 registers
//
// Every operation here is either an IEEE-754 basic operation (+, -, *, /,
// sqrt, fused multiply-add — correctly rounded per lane, so the width
// cannot change a result) or an exact bit operation: loads/stores, integer
// shifts and logic, compare -> mask, select by mask, mask -> bits, exact
// integer <-> double conversions of small integers, and lane shuffles.
// That is what keeps the AVX2 and AVX-512 tiers bit-identical to each
// other and to the scalar tier (simd_noise_kernels.inc).
//
// The types live in an anonymous namespace: every tier TU gets a private
// copy compiled for its own ISA, so the linker can never merge an AVX-512
// out-of-line copy into the AVX2 tier.
#pragma once

#if defined(__x86_64__) || defined(_M_X64)

// GCC 12's AVX-512 headers self-initialise their "undefined" vectors
// (`__m512d __Y = __Y;`), which trips -W[maybe-]uninitialized wherever an
// intrinsic built on them is inlined (GCC bug 105593, fixed in the headers
// in GCC 13).  The warning is attributed to the header's lines, so it is
// silenced for the header only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <immintrin.h>
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#include <cstdint>

namespace dhtrng::support::simd::x86 {
namespace {

#if defined(__AVX2__) && defined(__FMA__)
struct VecAvx2 {
  static constexpr int kWidth = 4;
  using pd = __m256d;
  using epi = __m256i;
  using mask = __m256d;  ///< all-ones lanes where true

  static pd load(const double* p) { return _mm256_loadu_pd(p); }
  static void store(double* p, pd v) { _mm256_storeu_pd(p, v); }
  static epi load_u64(const std::uint64_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store_u64(std::uint64_t* p, epi v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  /// Lanes 4g..4g+3 from p[8g..8g+3]: the u1 (or, at p+4, u2) words of
  /// kWidth/4 consecutive unfused Box-Muller groups.
  static epi load_u64_groups4(const std::uint64_t* p) { return load_u64(p); }

  static pd set1(double x) { return _mm256_set1_pd(x); }
  static epi set1_u64(std::uint64_t x) {
    return _mm256_set1_epi64x(static_cast<long long>(x));
  }

  static pd add(pd a, pd b) { return _mm256_add_pd(a, b); }
  static pd sub(pd a, pd b) { return _mm256_sub_pd(a, b); }
  static pd mul(pd a, pd b) { return _mm256_mul_pd(a, b); }
  static pd div(pd a, pd b) { return _mm256_div_pd(a, b); }
  static pd sqrt(pd a) { return _mm256_sqrt_pd(a); }
  /// a*b + c with one rounding (std::fma).
  static pd fma(pd a, pd b, pd c) { return _mm256_fmadd_pd(a, b, c); }
  static pd floor(pd a) { return _mm256_floor_pd(a); }
  static pd max(pd a, pd b) { return _mm256_max_pd(a, b); }
  static pd neg(pd a) { return _mm256_xor_pd(a, _mm256_set1_pd(-0.0)); }
  static pd abs(pd a) { return _mm256_andnot_pd(_mm256_set1_pd(-0.0), a); }

  static mask lt(pd a, pd b) { return _mm256_cmp_pd(a, b, _CMP_LT_OQ); }
  static unsigned bits(mask m) {
    return static_cast<unsigned>(_mm256_movemask_pd(m));
  }
  /// m ? if_true : if_false, per lane.
  static pd select(mask m, pd if_true, pd if_false) {
    return _mm256_blendv_pd(if_false, if_true, m);
  }
  /// m ? x : +0.0, per lane.
  static pd zero_unless(mask m, pd x) { return _mm256_and_pd(m, x); }
  /// m ? +0.0 : x, per lane.
  static pd zero_if(mask m, pd x) { return _mm256_andnot_pd(m, x); }

  static epi and_(epi a, epi b) { return _mm256_and_si256(a, b); }
  static epi or_(epi a, epi b) { return _mm256_or_si256(a, b); }
  static epi xor_(epi a, epi b) { return _mm256_xor_si256(a, b); }
  static epi add_u64(epi a, epi b) { return _mm256_add_epi64(a, b); }
  template <int k>
  static epi shl(epi a) { return _mm256_slli_epi64(a, k); }
  template <int k>
  static epi shr(epi a) { return _mm256_srli_epi64(a, k); }
  template <int k>
  static epi rotl(epi a) { return or_(shl<k>(a), shr<64 - k>(a)); }
  static pd as_pd(epi a) { return _mm256_castsi256_pd(a); }
  static epi as_epi(pd a) { return _mm256_castpd_si256(a); }

  /// Exact double(x) for x < 2^52: OR into the mantissa of 2^52, subtract.
  static pd small_u64_to_double(epi x) {
    return sub(as_pd(or_(x, as_epi(set1(0x1p52)))), set1(0x1p52));
  }
  /// int64(x) for integral x with |x| < 2^31 (exact; via the int32 cvt AVX2
  /// has, sign-extended).
  static epi trunc_to_i64(pd x) {
    return _mm256_cvtepi32_epi64(_mm256_cvttpd_epi32(x));
  }

  /// Quadrant selection of sincos: q = int(k) swaps sin/cos for odd q,
  /// negates sin when bit 1 is set, cos when bits 0 and 1 differ.  blendv
  /// and the sign xor read only bit 63, so the quadrant bits are shifted
  /// straight up (bits above 1 shift out) instead of being widened through
  /// compare chains.
  static void sincos_quadrant(pd k, pd sinx, pd cosx, pd& s_out,
                              pd& c_out) {
    const epi q = trunc_to_i64(k);
    const epi swap_bit = shl<63>(q);
    const epi sneg_bit = shl<62>(q);
    const pd sign = set1(-0.0);
    const pd s = _mm256_blendv_pd(sinx, cosx, as_pd(swap_bit));
    const pd c = _mm256_blendv_pd(cosx, sinx, as_pd(swap_bit));
    s_out = _mm256_xor_pd(s, _mm256_and_pd(as_pd(sneg_bit), sign));
    c_out = _mm256_xor_pd(
        c, _mm256_and_pd(as_pd(xor_(swap_bit, sneg_bit)), sign));
  }

  /// out[2j] = a[j], out[2j+1] = b[j] for every lane j.
  static void store_pairs(double* out, pd a, pd b) {
    const pd lo = _mm256_unpacklo_pd(a, b);  // a0 b0 a2 b2
    const pd hi = _mm256_unpackhi_pd(a, b);  // a1 b1 a3 b3
    _mm256_storeu_pd(out, _mm256_permute2f128_pd(lo, hi, 0x20));
    _mm256_storeu_pd(out + 4, _mm256_permute2f128_pd(lo, hi, 0x31));
  }

  /// The gated CDF's per-4-lane-group gate: lanes of a group with no bit in
  /// `near` get `fill`.  One vector is one group here, and a vector is only
  /// evaluated when some lane is near, so there is nothing to fill.
  static pd fill_far_groups(unsigned /*near*/, pd v, pd /*fill*/) {
    return v;
  }
};
#endif  // __AVX2__ && __FMA__

#if defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__AVX512VL__) && \
    defined(__FMA__)
struct VecAvx512 {
  static constexpr int kWidth = 8;
  using pd = __m512d;
  using epi = __m512i;
  using mask = __mmask8;  ///< bit j set where lane j is true

  static pd load(const double* p) { return _mm512_loadu_pd(p); }
  static void store(double* p, pd v) { _mm512_storeu_pd(p, v); }
  static epi load_u64(const std::uint64_t* p) {
    return _mm512_loadu_si512(p);
  }
  static void store_u64(std::uint64_t* p, epi v) {
    _mm512_storeu_si512(p, v);
  }
  /// Lanes 4g..4g+3 from p[8g..8g+3]: the u1 (or, at p+4, u2) words of two
  /// consecutive unfused Box-Muller groups.
  static epi load_u64_groups4(const std::uint64_t* p) {
    return _mm512_inserti64x4(
        _mm512_castsi256_si512(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 8)), 1);
  }

  static pd set1(double x) { return _mm512_set1_pd(x); }
  static epi set1_u64(std::uint64_t x) {
    return _mm512_set1_epi64(static_cast<long long>(x));
  }

  static pd add(pd a, pd b) { return _mm512_add_pd(a, b); }
  static pd sub(pd a, pd b) { return _mm512_sub_pd(a, b); }
  static pd mul(pd a, pd b) { return _mm512_mul_pd(a, b); }
  static pd div(pd a, pd b) { return _mm512_div_pd(a, b); }
  static pd sqrt(pd a) { return _mm512_sqrt_pd(a); }
  /// a*b + c with one rounding (std::fma).
  static pd fma(pd a, pd b, pd c) { return _mm512_fmadd_pd(a, b, c); }
  static pd floor(pd a) {
    return _mm512_roundscale_pd(a, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
  }
  static pd max(pd a, pd b) { return _mm512_max_pd(a, b); }
  static pd neg(pd a) { return _mm512_xor_pd(a, _mm512_set1_pd(-0.0)); }
  static pd abs(pd a) { return _mm512_andnot_pd(_mm512_set1_pd(-0.0), a); }

  static mask lt(pd a, pd b) { return _mm512_cmp_pd_mask(a, b, _CMP_LT_OQ); }
  static unsigned bits(mask m) { return static_cast<unsigned>(m); }
  /// m ? if_true : if_false, per lane.
  static pd select(mask m, pd if_true, pd if_false) {
    return _mm512_mask_blend_pd(m, if_false, if_true);
  }
  /// m ? x : +0.0, per lane.
  static pd zero_unless(mask m, pd x) { return _mm512_maskz_mov_pd(m, x); }
  /// m ? +0.0 : x, per lane.
  static pd zero_if(mask m, pd x) {
    return _mm512_maskz_mov_pd(static_cast<mask>(~m), x);
  }

  static epi and_(epi a, epi b) { return _mm512_and_si512(a, b); }
  static epi or_(epi a, epi b) { return _mm512_or_si512(a, b); }
  static epi xor_(epi a, epi b) { return _mm512_xor_si512(a, b); }
  static epi add_u64(epi a, epi b) { return _mm512_add_epi64(a, b); }
  template <int k>
  static epi shl(epi a) { return _mm512_slli_epi64(a, k); }
  template <int k>
  static epi shr(epi a) { return _mm512_srli_epi64(a, k); }
  template <int k>
  static epi rotl(epi a) { return _mm512_rol_epi64(a, k); }
  static pd as_pd(epi a) { return _mm512_castsi512_pd(a); }
  static epi as_epi(pd a) { return _mm512_castpd_si512(a); }

  /// Exact double(x) for x < 2^52 (AVX512DQ converts u64 directly; every
  /// such integer is representable, so this equals the 2^52 bit trick).
  static pd small_u64_to_double(epi x) { return _mm512_cvtepu64_pd(x); }
  /// int64(x) for integral x with |x| < 2^31 (exact).
  static epi trunc_to_i64(pd x) { return _mm512_cvttpd_epi64(x); }

  /// Quadrant selection of sincos with mask registers: q = int(k) swaps
  /// sin/cos where bit 0 is set, negates sin where bit 1 is set and cos
  /// where bits 0 and 1 differ.  Blends and masked sign flips are exact.
  static void sincos_quadrant(pd k, pd sinx, pd cosx, pd& s_out,
                              pd& c_out) {
    const epi q = trunc_to_i64(k);
    const mask swap = _mm512_test_epi64_mask(q, _mm512_set1_epi64(1));
    const mask sneg = _mm512_test_epi64_mask(q, _mm512_set1_epi64(2));
    const mask cneg = static_cast<mask>(swap ^ sneg);
    const pd sign = set1(-0.0);
    const pd s = _mm512_mask_blend_pd(swap, sinx, cosx);
    const pd c = _mm512_mask_blend_pd(swap, cosx, sinx);
    s_out = _mm512_mask_xor_pd(s, sneg, s, sign);
    c_out = _mm512_mask_xor_pd(c, cneg, c, sign);
  }

  /// out[2j] = a[j], out[2j+1] = b[j] for every lane j.
  static void store_pairs(double* out, pd a, pd b) {
    const epi lo_idx = _mm512_set_epi64(11, 3, 10, 2, 9, 1, 8, 0);
    const epi hi_idx = _mm512_set_epi64(15, 7, 14, 6, 13, 5, 12, 4);
    _mm512_storeu_pd(out, _mm512_permutex2var_pd(a, lo_idx, b));
    _mm512_storeu_pd(out + 8, _mm512_permutex2var_pd(a, hi_idx, b));
  }

  /// The gated CDF's per-4-lane-group gate: lanes of a 4-group with no bit
  /// in `near` get `fill`, so the evaluated-vector result matches the
  /// scalar tier's per-4 gate exactly.
  static pd fill_far_groups(unsigned near, pd v, pd fill) {
    const unsigned far = ((near & 0x0fu) == 0 ? 0x0fu : 0u) |
                         ((near & 0xf0u) == 0 ? 0xf0u : 0u);
    return _mm512_mask_blend_pd(static_cast<mask>(far), v, fill);
  }
};
#endif  // AVX-512 F/DQ/VL + FMA

}  // namespace
}  // namespace dhtrng::support::simd::x86

#endif  // x86-64
