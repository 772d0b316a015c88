// CPU-dispatch parity for the SIMD noise kernels (support/simd_noise.h).
//
// The contract under test is the one docs/architecture.md documents: every
// dispatch tier (scalar baseline, AVX2, AVX-512, NEON) produces
// bit-identical doubles — the tiers are compiled from the same operation
// sequence with -ffp-contract=off, so there is no "documented ulp bound" to
// allow; the bound is zero.  The parity tests run each kernel once per tier
// the host supports (forced via support::simd::force_tier) and compare
// every tier with the scalar tier elementwise with exact equality, which
// covers every tier pair.  On a scalar-only machine the comparisons
// degenerate to scalar-vs-scalar and still pass.  force_tier reaches any
// supported tier even under DHTRNG_FORCE_SCALAR=1, so the CI forced-scalar
// lane checks the same pairs with the scalar tier detected.
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "support/rng.h"
#include "support/simd_noise.h"
#include "support/simd_tiers.h"

namespace simd = dhtrng::support::simd;
using dhtrng::testsupport::run_per_tier;
using dhtrng::testsupport::tier_pair;
using dhtrng::testsupport::TierScope;

namespace {

/// Exact elementwise equality of every tier's output with the first
/// (scalar) tier's.
template <class Runs>
void expect_tiers_match(const Runs& runs, const char* what) {
  const auto& [ref_tier, ref] = runs.front();
  for (const auto& [tier, out] : runs) {
    ASSERT_EQ(out.size(), ref.size()) << what << ' ' << tier_pair(tier, ref_tier);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(out[i], ref[i])
          << what << ' ' << i << ": " << tier_pair(tier, ref_tier);
    }
  }
}

std::vector<std::uint64_t> raw_block(std::size_t n, std::uint64_t seed) {
  dhtrng::support::Xoshiro256 rng(seed);
  std::vector<std::uint64_t> raw(n);
  rng.fill_raw(raw.data(), n);
  return raw;
}

}  // namespace

TEST(SimdDispatch, DetectedTierIsValidAndNamed) {
  const simd::Tier t = simd::detected_tier();
  // Logged so a CI job's output shows which tier its ratio gates ran on.
  std::printf("detected SIMD tier: %s\n", simd::tier_name(t));
  EXPECT_TRUE(t == simd::Tier::Scalar || t == simd::Tier::Avx2 ||
              t == simd::Tier::Avx512 || t == simd::Tier::Neon);
  EXPECT_TRUE(simd::tier_supported(t));
  EXPECT_STREQ(simd::tier_name(simd::Tier::Scalar), "scalar");
  EXPECT_STREQ(simd::tier_name(simd::Tier::Avx2), "avx2");
  EXPECT_STREQ(simd::tier_name(simd::Tier::Avx512), "avx512");
  EXPECT_STREQ(simd::tier_name(simd::Tier::Neon), "neon");
  // The active tier starts at the detected tier (modulo an override by a
  // concurrently-registered test, which TierScope prevents).
  EXPECT_TRUE(simd::active_tier() == simd::detected_tier());
}

TEST(SimdDispatch, ForceTierRestoresAndClampsToHardware) {
  const simd::Tier original = simd::active_tier();
  {
    TierScope scalar(simd::Tier::Scalar);
    EXPECT_EQ(simd::active_tier(), simd::Tier::Scalar);
    // A tier the hardware does not support clamps to scalar rather than
    // dispatching into unreachable code.
#if defined(__x86_64__) || defined(_M_X64)
    TierScope bogus(simd::Tier::Neon);
    EXPECT_EQ(simd::active_tier(), simd::Tier::Scalar);
#elif defined(__aarch64__)
    TierScope bogus(simd::Tier::Avx2);
    EXPECT_EQ(simd::active_tier(), simd::Tier::Scalar);
#endif
  }
  EXPECT_EQ(simd::active_tier(), original);
  // Every supported tier can be forced — including one below the detected
  // tier (AVX2 on an AVX-512 host) — and only unsupported ones clamp.
  for (simd::Tier t : {simd::Tier::Scalar, simd::Tier::Avx2,
                       simd::Tier::Avx512, simd::Tier::Neon}) {
    TierScope forced(t);
    EXPECT_EQ(simd::active_tier(),
              simd::tier_supported(t) ? t : simd::Tier::Scalar)
        << simd::tier_name(t);
  }
  EXPECT_EQ(simd::active_tier(), original);
#if defined(__x86_64__) || defined(_M_X64)
  // An x86 AVX-512 tier implies the AVX2 tier on the same CPU.
  if (simd::tier_supported(simd::Tier::Avx512)) {
    EXPECT_TRUE(simd::tier_supported(simd::Tier::Avx2));
  }
#endif
}

TEST(SimdDispatch, ForceScalarEnvPinsDetection) {
  const char* force = std::getenv("DHTRNG_FORCE_SCALAR");
  if (force == nullptr || force[0] != '1') {
    GTEST_SKIP() << "DHTRNG_FORCE_SCALAR not set; covered by the CI "
                    "dispatch-parity step";
  }
  EXPECT_EQ(simd::detected_tier(), simd::Tier::Scalar);
  EXPECT_EQ(simd::active_tier(), simd::Tier::Scalar);
}

TEST(SimdDispatch, BoxmullerNativeMatchesScalarBitwise) {
  constexpr std::size_t kN = 4096;
  const auto raw = raw_block(kN, 0xb0b0);
  expect_tiers_match(run_per_tier([&] {
                       std::vector<double> out(kN);
                       simd::boxmuller_transform(raw.data(), out.data(), kN);
                       return out;
                     }),
                     "draw");
}

TEST(SimdDispatch, BoxmullerMomentsAreStandardNormal) {
  constexpr std::size_t kN = 1 << 18;
  const auto raw = raw_block(kN, 0x5eed);
  std::vector<double> z(kN);
  simd::boxmuller_transform(raw.data(), z.data(), kN);
  double mean = 0.0, var = 0.0, kurt = 0.0;
  for (double v : z) mean += v;
  mean /= static_cast<double>(kN);
  for (double v : z) {
    const double d = v - mean;
    var += d * d;
    kurt += d * d * d * d;
  }
  var /= static_cast<double>(kN);
  kurt = kurt / static_cast<double>(kN) / (var * var);
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.02);
  EXPECT_NEAR(kurt, 3.0, 0.1);  // excess kurtosis ~0 for a Gaussian
}

TEST(SimdDispatch, Sin2PiNativeMatchesScalarBitwiseAndIsAccurate) {
  constexpr std::size_t kN = 2048;
  dhtrng::support::Xoshiro256 rng(0x51);
  std::vector<double> turns(kN);
  for (auto& t : turns) t = rng.uniform(0.0, 2.0);
  const auto runs = run_per_tier([&] {
    std::vector<double> out(kN);
    simd::sin2pi_batch(turns.data(), out.data(), kN);
    return out;
  });
  expect_tiers_match(runs, "turn index");
  const std::vector<double>& native = runs.back().second;
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_NEAR(native[i], std::sin(2.0 * M_PI * turns[i]), 1e-13);
  }
}

TEST(SimdDispatch, NormalCdfNativeMatchesScalarBitwiseAndIsAccurate) {
  constexpr std::size_t kN = 2048;
  dhtrng::support::Xoshiro256 rng(0xcdf);
  std::vector<double> x(kN);
  for (auto& v : x) v = rng.uniform(0.0, 6.0);
  const auto runs = run_per_tier([&] {
    std::vector<double> out(kN);
    simd::normal_cdf_batch(x.data(), out.data(), kN);
    return out;
  });
  expect_tiers_match(runs, "x index");
  const std::vector<double>& native = runs.back().second;
  for (std::size_t i = 0; i < kN; ++i) {
    const double exact = 0.5 * std::erfc(-x[i] / std::sqrt(2.0));
    EXPECT_NEAR(native[i], exact, 1e-6);
  }
}

TEST(SimdDispatch, UniformLtMaskNativeMatchesScalar) {
  const auto raw = raw_block(64 * 8, 0x17);
  std::vector<double> p(64);
  dhtrng::support::Xoshiro256 rng(0x18);
  for (int rep = 0; rep < 8; ++rep) {
    for (auto& v : p) v = rng.uniform();
    expect_tiers_match(run_per_tier([&] {
                         return std::vector<std::uint64_t>{
                             simd::uniform_lt_mask64(raw.data() + 64 * rep,
                                                     p.data())};
                       }),
                       "mask");
  }
}

TEST(SimdDispatch, XoshiroSoANativeMatchesScalar) {
  constexpr std::size_t kN = 64 * 32;
  expect_tiers_match(run_per_tier([&] {
                       simd::XoshiroSoA x;
                       for (std::size_t l = 0; l < 64; ++l) {
                         x.seed_lane(l, 1000 + l);
                       }
                       std::vector<std::uint64_t> out(kN);
                       x.fill(out.data(), kN);
                       return out;
                     }),
                     "word");
}

TEST(SimdDispatch, BoxmullerFillNativeMatchesScalarBitwise) {
  constexpr std::size_t kN = 4096;
  // Seed two identical xoshiro states the way Xoshiro256 does (SplitMix64
  // expansion), advance both through the fused fill on different tiers.
  std::uint64_t seed_state[4];
  dhtrng::support::SplitMix64 seeder(0xf05ed);
  for (int j = 0; j < 4; ++j) seed_state[j] = seeder.next();
  std::vector<std::vector<std::uint64_t>> states;
  expect_tiers_match(run_per_tier([&] {
                       std::uint64_t s[4];
                       for (int j = 0; j < 4; ++j) s[j] = seed_state[j];
                       std::vector<double> out(kN);
                       simd::boxmuller_fill(s, out.data(), kN);
                       states.push_back({s[0], s[1], s[2], s[3]});
                       return out;
                     }),
                     "draw");
  // The fill advances the state identically too — a caller interleaving
  // fused fills with raw draws stays on one stream across tiers.
  for (const auto& st : states) ASSERT_EQ(st, states.front());
}

TEST(SimdDispatch, BoxmullerFillIsChunkInvariant) {
  // The fused stream is position-fixed: normals 2j, 2j+1 come from the
  // j-th word regardless of how the fill is chunked, so any sequence of
  // even-sized fills concatenates to the one-shot fill exactly.
  constexpr std::size_t kN = 1024;
  std::uint64_t whole[4], parts[4];
  dhtrng::support::SplitMix64 seeder(0xc4a2);
  for (int j = 0; j < 4; ++j) whole[j] = parts[j] = seeder.next();
  std::vector<double> one(kN), many(kN);
  simd::boxmuller_fill(whole, one.data(), kN);
  const std::size_t chunks[] = {2, 62, 128, 510, 322};  // sums to 1024
  std::size_t off = 0;
  for (std::size_t c : chunks) {
    simd::boxmuller_fill(parts, many.data() + off, c);
    off += c;
  }
  ASSERT_EQ(off, kN);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(one[i], many[i]) << "draw " << i;
  }
  for (int j = 0; j < 4; ++j) ASSERT_EQ(whole[j], parts[j]);
}

TEST(SimdDispatch, BoxmullerFillMomentsAreStandardNormal) {
  constexpr std::size_t kN = 1 << 18;
  std::uint64_t s[4];
  dhtrng::support::SplitMix64 seeder(0x90210);
  for (int j = 0; j < 4; ++j) s[j] = seeder.next();
  std::vector<double> z(kN);
  simd::boxmuller_fill(s, z.data(), kN);
  double mean = 0.0, var = 0.0, kurt = 0.0;
  for (double v : z) mean += v;
  mean /= static_cast<double>(kN);
  for (double v : z) {
    const double d = v - mean;
    var += d * d;
    kurt += d * d * d * d;
  }
  var /= static_cast<double>(kN);
  kurt = kurt / static_cast<double>(kN) / (var * var);
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.02);
  EXPECT_NEAR(kurt, 3.0, 0.1);
}

TEST(SimdDispatch, XoshiroSoAGaussianFillNativeMatchesScalar) {
  // 832 is the SoA engine's off-refresh draw count: 6 full 64-lane
  // advances plus a partial 7th, so the deterministic-discard tail path
  // is exercised, not just the aligned path.
  constexpr std::size_t kN = 832;
  std::vector<std::vector<std::uint64_t>> next_words;
  expect_tiers_match(run_per_tier([&] {
                       simd::XoshiroSoA x;
                       for (std::size_t l = 0; l < 64; ++l) {
                         x.seed_lane(l, 42 + l);
                       }
                       std::vector<double> out(kN);
                       x.gaussian_fill(out.data(), kN);
                       // Subsequent raw fills must stay in lockstep (same
                       // words discarded).
                       std::vector<std::uint64_t> raw(64);
                       x.fill(raw.data(), 64);
                       next_words.push_back(raw);
                       return out;
                     }),
                     "draw");
  for (const auto& w : next_words) EXPECT_EQ(w, next_words.front());
}

TEST(SimdDispatch, UniformLtMaskHiLoNativeMatchesScalarAndSemantics) {
  const auto raw = raw_block(64 * 8, 0x19);
  std::vector<double> p(64);
  dhtrng::support::Xoshiro256 rng(0x20);
  for (int rep = 0; rep < 8; ++rep) {
    for (auto& v : p) v = rng.uniform();
    const std::uint64_t* w = raw.data() + 64 * rep;
    const auto runs = run_per_tier([&] {
      return std::vector<std::uint64_t>{
          simd::uniform_lt_mask64_hi(w, p.data()),
          simd::uniform_lt_mask64_lo(w, p.data())};
    });
    expect_tiers_match(runs, "hi/lo mask");
    const std::uint64_t hi_native = runs.back().second[0];
    const std::uint64_t lo_native = runs.back().second[1];
    // Reference semantics: 32-bit halves scaled by 2^-32, strict less-than.
    for (int l = 0; l < 64; ++l) {
      const double hi_u = static_cast<double>(w[l] >> 32) * 0x1p-32;
      const double lo_u =
          static_cast<double>(w[l] & 0xffffffffu) * 0x1p-32;
      ASSERT_EQ((hi_native >> l) & 1, hi_u < p[l] ? 1u : 0u);
      ASSERT_EQ((lo_native >> l) & 1, lo_u < p[l] ? 1u : 0u);
    }
  }
}

TEST(SimdDispatch, TrimmedBatchesNativeMatchScalarBitwise) {
  constexpr std::size_t kN = 2048;
  dhtrng::support::Xoshiro256 rng(0x7213);
  std::vector<double> turns(kN), xs(kN), logs(kN), exps(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    turns[i] = rng.uniform(0.0, 2.0);
    xs[i] = rng.uniform(-8.0, 8.0);
    logs[i] = rng.uniform(1e-10, 1.0);
    exps[i] = rng.uniform(-40.0, 0.0);
  }
  const struct {
    const char* name;
    void (*fn)(const double*, double*, std::size_t);
    const std::vector<double>* in;
  } cases[] = {
      {"sin2pi_trimmed", simd::sin2pi_batch_trimmed, &turns},
      {"normal_cdf_trimmed", simd::normal_cdf_batch_trimmed, &xs},
      {"fast_log", simd::fast_log_batch, &logs},
      {"fast_log_trimmed", simd::fast_log_batch_trimmed, &logs},
      {"fast_exp", simd::fast_exp_batch, &exps},
      {"fast_exp_trimmed", simd::fast_exp_batch_trimmed, &exps},
  };
  for (const auto& c : cases) {
    expect_tiers_match(run_per_tier([&] {
                         std::vector<double> out(kN);
                         c.fn(c.in->data(), out.data(), kN);
                         return out;
                       }),
                       c.name);
  }
}

TEST(SimdDispatch, GatedTrimmedCdfParityAndSemantics) {
  constexpr std::size_t kN = 1027;  // non-multiple of 4 exercises the tail
  constexpr double kCut = 4.0;
  dhtrng::support::Xoshiro256 rng(0x6a7e);
  std::vector<double> xs(kN);
  // Mostly-far population with scattered near lanes, like the engine's
  // aperture distances: all-far groups, mixed groups, and a gated tail.
  for (std::size_t i = 0; i < kN; ++i) {
    xs[i] = rng.uniform() < 0.2 ? rng.uniform(0.0, kCut)
                                : rng.uniform(kCut, 40.0);
  }
  std::vector<double> ungated(kN);
  {
    TierScope s(simd::Tier::Scalar);
    simd::normal_cdf_batch_trimmed(xs.data(), ungated.data(), kN);
  }
  const auto runs = run_per_tier([&] {
    std::vector<double> out(kN);
    simd::normal_cdf_batch_trimmed_gated(xs.data(), out.data(), kN, kCut);
    return out;
  });
  expect_tiers_match(runs, "element");
  const std::vector<double>& native = runs.back().second;
  for (std::size_t i = 0; i < kN; ++i) {
    // Per-4-group semantics: 1.0 iff the whole group is at/past the
    // cutoff; otherwise (and for tail lanes) exactly the ungated batch.
    const std::size_t g = i - i % 4;
    bool gated = g + 4 <= kN;
    for (std::size_t j = g; gated && j < g + 4; ++j) gated = !(xs[j] < kCut);
    ASSERT_EQ(native[i], gated ? 1.0 : ungated[i]) << "element " << i;
  }
}

TEST(SimdDispatch, GaussianFillFastNativeMatchesScalar) {
  constexpr std::size_t kN = 1000;  // odd-ish size exercises the tail
  expect_tiers_match(run_per_tier([&] {
                       dhtrng::support::Xoshiro256 rng(0xfa57);
                       std::vector<double> out(kN);
                       rng.gaussian_fill_fast(out.data(), kN);
                       return out;
                     }),
                     "draw");
}

TEST(SimdDispatch, RaggedSizesMatchAcrossTiers) {
  // Every kernel at every size from 0 to 40 (even sizes for the Box-Muller
  // kernels): the vector tiers pad their tails differently (4- vs 8-wide),
  // so the tails are where a width-dependent result would show.
  const auto raw = raw_block(64, 0x7a11);
  dhtrng::support::Xoshiro256 rng(0x7a12);
  std::vector<double> turns(40), xs(40), logs(40), exps(40);
  for (std::size_t i = 0; i < 40; ++i) {
    turns[i] = rng.uniform(0.0, 2.0);
    // Far groups, near groups and mixed groups for the gated CDF.
    xs[i] = (i / 4) % 3 == 0 ? rng.uniform(4.0, 30.0) : rng.uniform(-4.0, 8.0);
    logs[i] = rng.uniform(1e-10, 1.0);
    exps[i] = rng.uniform(-40.0, 0.0);
  }
  using Batch = void (*)(const double*, double*, std::size_t);
  const struct {
    const char* name;
    Batch fn;
    const std::vector<double>* in;
  } batches[] = {
      {"sin2pi", simd::sin2pi_batch, &turns},
      {"sin2pi_trimmed", simd::sin2pi_batch_trimmed, &turns},
      {"normal_cdf", simd::normal_cdf_batch, &xs},
      {"normal_cdf_trimmed", simd::normal_cdf_batch_trimmed, &xs},
      {"fast_log", simd::fast_log_batch, &logs},
      {"fast_log_trimmed", simd::fast_log_batch_trimmed, &logs},
      {"fast_exp", simd::fast_exp_batch, &exps},
      {"fast_exp_trimmed", simd::fast_exp_batch_trimmed, &exps},
  };
  for (std::size_t n = 0; n <= 40; ++n) {
    SCOPED_TRACE(testing::Message() << "n = " << n);
    for (const auto& b : batches) {
      expect_tiers_match(run_per_tier([&] {
                           std::vector<double> out(n);
                           b.fn(b.in->data(), out.data(), n);
                           return out;
                         }),
                         b.name);
    }
    expect_tiers_match(run_per_tier([&] {
                         std::vector<double> out(n);
                         simd::normal_cdf_batch_trimmed_gated(
                             xs.data(), out.data(), n, 4.0);
                         return out;
                       }),
                       "gated cdf");
    if (n % 2 != 0) continue;
    expect_tiers_match(run_per_tier([&] {
                         std::vector<double> out(n);
                         simd::boxmuller_transform(raw.data(), out.data(), n);
                         return out;
                       }),
                       "boxmuller_transform");
    expect_tiers_match(run_per_tier([&] {
                         std::uint64_t s[4] = {raw[0], raw[1], raw[2], raw[3]};
                         std::vector<double> out(n);
                         simd::boxmuller_fill(s, out.data(), n);
                         for (std::uint64_t w : s) {  // exact as doubles
                           out.push_back(static_cast<double>(w >> 32));
                           out.push_back(static_cast<double>(w & 0xffffffffu));
                         }
                         return out;
                       }),
                       "boxmuller_fill (+ state)");
  }
  // SoA fills of every even size up to two advances: partial-advance tails.
  for (std::size_t n = 0; n <= 256; n += 2) {
    SCOPED_TRACE(testing::Message() << "n = " << n);
    expect_tiers_match(run_per_tier([&] {
                         simd::XoshiroSoA x;
                         for (std::size_t l = 0; l < 64; ++l) {
                           x.seed_lane(l, 7 * l + 1);
                         }
                         std::vector<double> out(n);
                         x.gaussian_fill(out.data(), n);
                         return out;
                       }),
                       "soa gaussian_fill");
  }
}

TEST(SimdDispatch, DelayCombineMatchesAcrossTiersAtRaggedSizes) {
  // The fast-noise gate-delay block: two fmas per element.  Every tier
  // must equal the scalar tier, and the scalar tier must equal std::fma
  // done here element by element; sizes 0..40 cover every 4- and 8-wide
  // tail, 256 is EdgeJitterSource's block.
  dhtrng::support::Xoshiro256 rng(0xde1a);
  std::vector<double> white(256), flicker(256);
  rng.gaussian_fill(white.data(), white.size());
  for (double& f : flicker) f = rng.uniform(-2.0, 2.0);
  const double white_gain = 1.37;
  const double flicker_gain = 0.8125;
  const double base = 143.25;
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 40; ++n) sizes.push_back(n);
  sizes.push_back(256);
  for (std::size_t n : sizes) {
    SCOPED_TRACE(testing::Message() << "n = " << n);
    const auto runs = run_per_tier([&] {
      std::vector<double> out(n);
      simd::delay_combine_batch(white.data(), flicker.data(), white_gain,
                                flicker_gain, base, out.data(), n);
      return out;
    });
    expect_tiers_match(runs, "delay");
    const std::vector<double>& scalar = runs.front().second;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(scalar[i],
                std::fma(white_gain, white[i],
                         std::fma(flicker_gain, flicker[i], base)))
          << "element " << i;
    }
  }
}
