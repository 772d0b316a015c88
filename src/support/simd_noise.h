// Runtime-dispatched SIMD noise kernels — the fast-noise mode's math core.
//
// The exact-doubles noise pipeline (Xoshiro256::gaussian_fill,
// FlickerNoise::fill, SharedSupplyNoise) draws one double at a time through
// the Marsaglia polar method; its value stream is pinned by the golden
// waveform digests and cannot be reordered.  The kernels here implement the
// documented `fast-noise` relaxation: batched Box-Muller and polynomial
// special functions over whole blocks, laid out so the compiler vectorizes
// them (AVX-512 or AVX2 on x86-64, NEON on aarch64, plain scalar
// elsewhere).
//
// Dispatch contract: every tier produces *bit-identical* doubles.  The
// scalar and NEON tiers compile the shared scalar kernel source
// (simd_noise_kernels.inc); the two x86 vector tiers compile one
// width-generic intrinsic source (simd_noise_x86.inc) over a vector-traits
// type — 4-wide ymm for AVX2, 8-wide zmm with __mmask8 masks for AVX-512.
// Every TU builds with contraction disabled and explicit fma, and IEEE-754
// makes +, -, *, /, sqrt and fma deterministic per lane; the only other
// operations are exact (compare -> mask, select, mask -> bits, shuffles,
// small-integer conversions) — so vector width never changes a result,
// only wall-clock.  tests/noise/test_simd_dispatch.cpp asserts exact
// equality for every tier pair the host supports; the documented
// compatibility bound for future platforms is <= 2 ulp.
//
// Tier selection: the best tier the CPU supports (x86-64: AVX-512 when
// avx512f/dq/vl + fma are present, else AVX2 when avx2 + fma are, else
// scalar; aarch64: NEON), clamped to Scalar when the environment variable
// DHTRNG_FORCE_SCALAR=1 is set (the CI parity lane), or overridden
// programmatically with force_tier() (tests, benches).
#pragma once

#include <cstddef>
#include <cstdint>

namespace dhtrng::support {
class Xoshiro256;
}

namespace dhtrng::support::simd {

enum class Tier { Scalar, Avx2, Neon, Avx512 };

const char* tier_name(Tier t);

/// Best tier this CPU supports, after the DHTRNG_FORCE_SCALAR clamp.
/// Evaluated once per process.
Tier detected_tier();

/// Tier the kernels currently dispatch to (detected_tier() unless
/// force_tier() changed it).
Tier active_tier();

/// Whether this CPU can run tier `t` (Scalar always; on an AVX-512 host
/// both Avx2 and Avx512).  Independent of DHTRNG_FORCE_SCALAR.
bool tier_supported(Tier t);

/// Test/bench hook: dispatch to `t` if tier_supported(t), else to Scalar.
/// Any supported tier can be forced, including one below the detected
/// tier and one above a DHTRNG_FORCE_SCALAR clamp.  Returns the previously
/// active tier.
Tier force_tier(Tier t);

/// Batched Box-Muller: consumes `n` raw 64-bit words and writes `n`
/// standard normals (`n` must be even; words are consumed in groups of
/// up to 4 pairs).  Deterministic: out[i] depends only on raw[] and i.
/// One whole word per uniform — the unfused transform, kept for callers
/// that already hold a raw stream and for the dispatch-parity oracle.
void boxmuller_transform(const std::uint64_t* raw, double* out,
                         std::size_t n);

/// Fused fill: advances the xoshiro256** state `s` inline and writes `n`
/// standard normals (`n` must be even), two per raw word — the high 32
/// bits feed the Box-Muller radius (trimmed log, tail clipped at ~6.66
/// sigma), the low 32 bits the angle (trimmed sincos).  Per-sample
/// absolute error vs an exact Box-Muller of the same uniforms < 1e-6.
/// Position-fixed: normals 2j, 2j+1 depend only on the j-th word after
/// the incoming state, so chunked fills concatenate exactly.
void boxmuller_fill(std::uint64_t s[4], double* out, std::size_t n);

/// out[i] = sin(2*pi*turns[i]) for turns in [0, 2); absolute error < 1e-15.
void sin2pi_batch(const double* turns, double* out, std::size_t n);

/// Trimmed-grade sin(2*pi*t): absolute error < 1e-6 (measured ~3.1e-7) at
/// roughly half the polynomial work.  Fast-noise consumers only.
void sin2pi_batch_trimmed(const double* turns, double* out, std::size_t n);

/// out[i] = Phi(x[i]), the standard normal CDF, via the Abramowitz-Stegun
/// 7.1.26 rational approximation (absolute error < 1e-6 — documented
/// fast-mode accuracy; exact mode keeps support::normal_cdf).
void normal_cdf_batch(const double* x, double* out, std::size_t n);

/// Trimmed-grade Phi(x): same A&S 7.1.26 rational term (absolute error
/// 1.5e-7 dominates) over the trimmed exponential; total error < 1e-6.
void normal_cdf_batch_trimmed(const double* x, double* out, std::size_t n);

/// Group-gated trimmed Phi(x): any 4-lane group whose inputs all sit at or
/// above `cutoff` skips the evaluation and stores 1.0; a group with at
/// least one lane below the cutoff (and any tail lanes past the last full
/// group) evaluates exactly like normal_cdf_batch_trimmed.  The gate is
/// per-4-group in every tier, so tiers stay bit-identical.  Meant for
/// consumers that mask out far lanes anyway (the SoA engine's aperture
/// keep test): their downstream results are bit-identical at a fraction of
/// the CDF work when most lanes are far from an edge.
void normal_cdf_batch_trimmed_gated(const double* x, double* out,
                                    std::size_t n, double cutoff);

/// Elementwise accuracy-test entry points (dense sweeps vs libm live in
/// tests/support/test_fast_math.cpp).  Domains: log x in (0, 1], exp y
/// <= 0.  Budgets: full-grade rel err <= 1e-13 for fast_log, <= 5e-13
/// for fast_exp (the degree-10 Taylor truncates at ~2.2e-13 of the
/// result at the |r| = ln2/2 reduction boundary), trimmed <= 1e-6.
void fast_log_batch(const double* x, double* out, std::size_t n);
void fast_log_batch_trimmed(const double* x, double* out, std::size_t n);
void fast_exp_batch(const double* y, double* out, std::size_t n);
void fast_exp_batch_trimmed(const double* y, double* out, std::size_t n);

/// out[i] = fma(white_gain, white[i], fma(flicker_gain, flicker[i], base))
/// — the fast-noise gate-delay block (EdgeJitterSource::refill_fast).
/// Exact in every tier: each fma rounds once, whether it is a libm call
/// (x86-64 scalar tier) or an instruction (AVX2, AVX-512, NEON).
void delay_combine_batch(const double* white, const double* flicker,
                         double white_gain, double flicker_gain, double base,
                         double* out, std::size_t n);

/// Bit i of the result is set iff the uniform in [0,1) derived from raw[i]
/// is < p[i] — 64 independent Bernoulli trials packed into one word (the
/// bitsliced backend's coin flips).  Exact in every tier.
std::uint64_t uniform_lt_mask64(const std::uint64_t* raw, const double* p);

/// Sliced Bernoulli draws: the comparison consumes nowhere near 64 bits of
/// entropy, so each word is split into two independent 32-bit uniforms —
/// _hi compares the high half, _lo the low half (each in [0,1) at 2^-32
/// granularity; coin bias <= 2^-32, far below the model's probabilities).
/// Two coins per word halves the SoA engine's uniform word budget.
std::uint64_t uniform_lt_mask64_hi(const std::uint64_t* raw, const double* p);
std::uint64_t uniform_lt_mask64_lo(const std::uint64_t* raw, const double* p);

/// 64 parallel xoshiro256** streams in structure-of-arrays layout: state
/// word j of lane l is s[j][l].  One advance() yields 64 independent
/// uint64s (one per lane).  Seeded per lane via SplitMix64 like the scalar
/// Xoshiro256, so lanes are as independent as 64 separately-seeded scalar
/// generators.
struct XoshiroSoA {
  std::uint64_t s[4][64];

  void seed_lane(std::size_t lane, std::uint64_t seed);

  /// out[l] = next value of lane l's stream, for all 64 lanes.
  void advance(std::uint64_t* out);

  /// Fill `n` words (n a multiple of 64) lane-major: out[k*64 + l] is the
  /// k-th draw of lane l.
  void fill(std::uint64_t* out, std::size_t n);

  /// Fused fill of `n` standard normals (`n` even): each 64-lane advance
  /// yields 128 trimmed-grade normals via the fused Box-Muller (two per
  /// word, see boxmuller_fill).  A partial final advance consumes its
  /// first ceil(rem/2) words and deterministically discards the rest.
  void gaussian_fill(double* out, std::size_t n);
};

}  // namespace dhtrng::support::simd
