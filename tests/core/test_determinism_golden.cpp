// Golden known-answer vectors pinning the seed -> bitstream mapping of
// every generator in the library.  The determinism contract
// (docs/architecture.md) says identical (config, seed) pairs reproduce
// identical bitstreams on any platform across refactors — these vectors
// make a silent break of that contract a test failure, and they are the
// anchor the parallel generation path is held to.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/baselines/coso_trng.h"
#include "core/baselines/latch_trng.h"
#include "core/baselines/msf_ro_trng.h"
#include "core/baselines/tero_trng.h"
#include "core/baselines/xor_ro_trng.h"
#include "core/dhtrng.h"
#include "core/dhtrng_array.h"
#include "core/dhtrng_soa.h"
#include "sim/simulator.h"
#include "support/sha256.h"
#include "support/simd_noise.h"
#include "support/simd_tiers.h"

namespace dhtrng::core {
namespace {

std::string first_256_bits_hex(TrngSource& src) {
  std::string hex;
  for (std::uint8_t b : src.generate(256).to_bytes()) {
    static const char* digits = "0123456789abcdef";
    hex += digits[b >> 4];
    hex += digits[b & 0xf];
  }
  return hex;
}

TEST(DeterminismGolden, DhTrngFastBackend) {
  DhTrng trng({.seed = 42});
  EXPECT_EQ(first_256_bits_hex(trng),
            "92914a14c83680fc37e1237f2fd0d19dcfe4b2f9bdb2b64b65337044e6625356");
}

TEST(DeterminismGolden, DhTrngGateLevelBackend) {
  DhTrng trng({.seed = 42, .backend = Backend::GateLevel});
  EXPECT_EQ(first_256_bits_hex(trng),
            "220508831913691b26c2b0a7e08b090cb228f766cbea6e10a137a4bb17b60b4a");
}

TEST(DeterminismGolden, XorRoBaseline) {
  XorRoTrng trng({.seed = 42});
  EXPECT_EQ(first_256_bits_hex(trng),
            "39524851d919ad7a68cfa807d4467fa453beb1b93943aff7da421f7cd21c6808");
}

TEST(DeterminismGolden, MsfRoBaseline) {
  MsfRoTrng trng({.seed = 42});
  EXPECT_EQ(first_256_bits_hex(trng),
            "49933266cd993664cdb3266cd9b33664cc99b3664cd9b2664d99b3366cd9b366");
}

TEST(DeterminismGolden, CosoBaseline) {
  CosoTrng trng({.seed = 42});
  EXPECT_EQ(first_256_bits_hex(trng),
            "b2e5d1e2e1d1e0e9f160e9f064f9b074f8b27cd9327cd9366c99364c1b3e4c1b");
}

TEST(DeterminismGolden, LatchBaseline) {
  LatchTrng trng({.seed = 42});
  EXPECT_EQ(first_256_bits_hex(trng),
            "33551d8e67e48052d372af88373005ff5d894ccf588288845ada7630bfd674fe");
}

TEST(DeterminismGolden, TeroBaseline) {
  TeroTrng trng({.seed = 42});
  EXPECT_EQ(first_256_bits_hex(trng),
            "6d09b5ef668039d096c7edca845be83d13772624e47f35c5735549f19e1641b6");
}

TEST(DeterminismGolden, DhTrngArrayInterleaved) {
  DhTrngArray array({.core = {.seed = 42}, .cores = 4});
  EXPECT_EQ(first_256_bits_hex(array),
            "6b565118be1fa8bd41392dacc996f25b8034c02862698801bae6b3ce99184d3e");
}

TEST(DeterminismGolden, SameSeedSameStreamTwice) {
  DhTrng a({.seed = 7});
  DhTrng b({.seed = 7});
  EXPECT_EQ(a.generate(4096), b.generate(4096));
}

// --- fast-noise streams ---------------------------------------------------
//
// NoiseMode::Fast is a different stream from Exact (trimmed polynomial
// grades, fused Box-Muller), so the digests above do not cover it.  These
// pin the fast streams of the bitsliced SoA engine and of the gate-level
// simulator, and check them on every dispatch tier the host supports: each
// tier is held to the pinned stream, not only to the other tiers.
// Regenerate (only after an intentional stream change) with
//   DHTRNG_REGEN_GOLDEN=1 ./test_concurrency --gtest_filter='FastNoiseGolden*'
// and paste the printed rows.

bool regen_golden() { return std::getenv("DHTRNG_REGEN_GOLDEN") != nullptr; }

struct SoaGolden {
  std::uint64_t seed;
  bool coupling;
  const char* words_sha256;  ///< first kSoaGoldenWords words, little-endian
  double metastable_fraction;
};

constexpr std::size_t kSoaGoldenWords = 256;

constexpr SoaGolden kSoaGolden[] = {
    {1, true, "69afa12c344164e0258d6068b37c5c22f6a9677d87653090a7ae114a3ac9ccb5", 0.81280517578125},
    {1, false, "011454a2ed1c34c32fe67c102d6e33ed33347ad7f971476cfcf816857a273f28", 0.8138427734375},
    {42, true, "676b260ac9215a81c4844ed81924d96f722883b021d35c31614abfb4e61ce251", 0.8135986328125},
    {42, false, "b59cbda2ce06dba02753d0773115155da9379015274761ffa101cde38b3dd663", 0.81549072265625},
    {2024, true, "68eadde25953226b27cbdd62e6373331bbfade63683f2859f27975de94f5cf45", 0.80877685546875},
    {2024, false, "845c2d06f9babc1524be33b6e7e0f129cdf53b541aca506664f8d3befb40fa01", 0.81158447265625},
};

struct SoaDigest {
  std::string words_sha256;
  double metastable_fraction;
};

SoaDigest soa_fast_digest(std::uint64_t seed, bool coupling) {
  DhTrngSoAConfig cfg;
  cfg.core.seed = seed;
  cfg.core.coupling = coupling;
  cfg.noise_mode = noise::NoiseMode::Fast;
  DhTrngSoA soa(cfg);
  std::vector<std::uint64_t> words(kSoaGoldenWords);
  soa.generate_words(words.data(), words.size());
  std::vector<std::uint8_t> bytes;
  bytes.reserve(words.size() * 8);
  for (std::uint64_t w : words) {
    for (int b = 0; b < 8; ++b) {
      bytes.push_back(static_cast<std::uint8_t>(w >> (8 * b)));
    }
  }
  return {support::Sha256::hex(support::Sha256::hash(bytes)),
          soa.metastable_fraction()};
}

TEST(FastNoiseGolden, DhTrngSoAStreams) {
  for (const SoaGolden& g : kSoaGolden) {
    if (regen_golden()) {
      const SoaDigest d = soa_fast_digest(g.seed, g.coupling);
      std::printf("    {%llu, %s, \"%s\", %.17g},\n",
                  static_cast<unsigned long long>(g.seed),
                  g.coupling ? "true" : "false", d.words_sha256.c_str(),
                  d.metastable_fraction);
      continue;
    }
    for (const auto& [tier, d] : testsupport::run_per_tier(
             [&] { return soa_fast_digest(g.seed, g.coupling); })) {
      EXPECT_EQ(d.words_sha256, g.words_sha256)
          << "seed " << g.seed << " coupling " << g.coupling << " tier "
          << support::simd::tier_name(tier);
      EXPECT_EQ(d.metastable_fraction, g.metastable_fraction)
          << "seed " << g.seed << " coupling " << g.coupling << " tier "
          << support::simd::tier_name(tier);
    }
  }
  if (regen_golden()) GTEST_SKIP() << "regeneration mode: rows printed above";
}

struct GateGolden {
  std::uint64_t seed;
  const char* bits_sha256;  ///< first kGateGoldenBits bits, BitStream bytes
  std::uint64_t events_processed;
  std::uint64_t runts_filtered;
  std::uint64_t metastable_samples;
};

constexpr std::size_t kGateGoldenBits = 4096;

constexpr GateGolden kGateGolden[] = {
    {2, "9f3c29464e6f159eb9419fafc5cfb6ad5e74fef5757b472fcffaf6efaec81481", 1738290, 52645, 18602},
    {42, "b98ab982138689e9f479922c706148cfdfa899d0f9606850962736f26caad103", 1780505, 56834, 18756},
};

struct GateDigest {
  std::string bits_sha256;
  std::uint64_t events_processed;
  std::uint64_t runts_filtered;
  std::uint64_t metastable_samples;
};

GateDigest gate_fast_digest(std::uint64_t seed) {
  DhTrng trng({.seed = seed,
               .backend = Backend::GateLevel,
               .noise_mode = noise::NoiseMode::Fast});
  const std::string sha = support::Sha256::hex(
      support::Sha256::hash(trng.generate(kGateGoldenBits).to_bytes()));
  const sim::Simulator& sim = *trng.simulator();
  return {sha, sim.events_processed(), sim.runts_filtered(),
          sim.metastable_samples()};
}

TEST(FastNoiseGolden, DhTrngGateLevelStreams) {
  for (const GateGolden& g : kGateGolden) {
    if (regen_golden()) {
      const GateDigest d = gate_fast_digest(g.seed);
      std::printf("    {%llu, \"%s\", %llu, %llu, %llu},\n",
                  static_cast<unsigned long long>(g.seed),
                  d.bits_sha256.c_str(),
                  static_cast<unsigned long long>(d.events_processed),
                  static_cast<unsigned long long>(d.runts_filtered),
                  static_cast<unsigned long long>(d.metastable_samples));
      continue;
    }
    for (const auto& [tier, d] :
         testsupport::run_per_tier([&] { return gate_fast_digest(g.seed); })) {
      const char* name = support::simd::tier_name(tier);
      EXPECT_EQ(d.bits_sha256, g.bits_sha256)
          << "seed " << g.seed << " tier " << name;
      EXPECT_EQ(d.events_processed, g.events_processed)
          << "seed " << g.seed << " tier " << name;
      EXPECT_EQ(d.runts_filtered, g.runts_filtered)
          << "seed " << g.seed << " tier " << name;
      EXPECT_EQ(d.metastable_samples, g.metastable_samples)
          << "seed " << g.seed << " tier " << name;
    }
  }
  if (regen_golden()) GTEST_SKIP() << "regeneration mode: rows printed above";
}

// --- the parallel path's determinism guarantee ----------------------------

TEST(ParallelDeterminism, BitIdenticalToSerialForAnyThreadCount) {
  // The acceptance bar of the concurrency layer: generate_parallel must be
  // a pure performance transform.  Same master seed -> same bits, for
  // k in {1, 2, 8} worker threads, equal to the serial path.
  const std::size_t n = 20000;  // not a multiple of cores: uneven shares
  DhTrngArray serial({.core = {.seed = 42}, .cores = 4});
  const auto reference = serial.generate(n);

  for (std::size_t threads : {1u, 2u, 8u}) {
    DhTrngArray parallel({.core = {.seed = 42}, .cores = 4});
    EXPECT_EQ(parallel.generate_parallel(n, threads), reference)
        << threads << " threads";
  }
}

TEST(ParallelDeterminism, MatchesGoldenVector) {
  DhTrngArray array({.core = {.seed = 42}, .cores = 4});
  auto bits = array.generate_parallel(256, 8);
  std::string hex;
  for (std::uint8_t b : bits.to_bytes()) {
    static const char* digits = "0123456789abcdef";
    hex += digits[b >> 4];
    hex += digits[b & 0xf];
  }
  EXPECT_EQ(hex,
            "6b565118be1fa8bd41392dacc996f25b8034c02862698801bae6b3ce99184d3e");
}

TEST(ParallelDeterminism, SerialAndParallelCallsCompose) {
  // The round-robin cursor advances identically, so serial and parallel
  // segments of one run concatenate to the same stream.
  DhTrngArray reference({.core = {.seed = 9}, .cores = 3});
  const auto whole = reference.generate(3001);

  DhTrngArray mixed({.core = {.seed = 9}, .cores = 3});
  support::BitStream stitched;
  stitched.append(mixed.generate(997));               // serial prefix
  stitched.append(mixed.generate_parallel(1003, 2));  // parallel middle
  stitched.append(mixed.generate(1001));              // serial suffix
  EXPECT_EQ(stitched, whole);
}

TEST(ParallelDeterminism, SingleCoreArrayParallelPath) {
  DhTrngArray serial({.core = {.seed = 5}, .cores = 1});
  DhTrngArray parallel({.core = {.seed = 5}, .cores = 1});
  EXPECT_EQ(parallel.generate_parallel(5000, 8), serial.generate(5000));
}

}  // namespace
}  // namespace dhtrng::core
