#include "core/dhtrng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "sim/simulator.h"
#include "stats/correlation.h"

namespace dhtrng::core {
namespace {

TEST(DhTrng, GateLevelReleasesConsumedSamples) {
  // The gate-level backend reads its output flip-flop's recorded samples;
  // consumed samples must be released, or every generated bit stays
  // buffered for the generator's lifetime.  The stream itself is pinned by
  // FastNoiseGolden.DhTrngGateLevelStreams.
  DhTrng t{{.seed = 5,
            .backend = Backend::GateLevel,
            .noise_mode = noise::NoiseMode::Fast}};
  std::size_t peak = 0;
  for (int chunk = 0; chunk < 100; ++chunk) {
    (void)t.generate(1000);
    peak = std::max(peak, t.simulator()->buffered_samples());
  }
  EXPECT_LE(peak, 4u) << "buffered samples grow with the bits generated";
}

TEST(DhTrng, DefaultClockIsDeviceMax) {
  DhTrng a7{{.device = fpga::DeviceModel::artix7()}};
  EXPECT_NEAR(a7.clock_mhz(), 620.0, 10.0);
  DhTrng v6{{.device = fpga::DeviceModel::virtex6()}};
  EXPECT_NEAR(v6.clock_mhz(), 670.0, 10.0);
  EXPECT_DOUBLE_EQ(a7.throughput_mbps(), a7.clock_mhz());
}

TEST(DhTrng, ExplicitClockHonored) {
  DhTrng t{{.clock_mhz = 100.0}};
  EXPECT_DOUBLE_EQ(t.clock_mhz(), 100.0);
}

TEST(DhTrng, DeterministicForSeed) {
  DhTrng a{{.seed = 123}};
  DhTrng b{{.seed = 123}};
  EXPECT_EQ(a.generate(5000), b.generate(5000));
}

TEST(DhTrng, DifferentSeedsDiffer) {
  DhTrng a{{.seed = 1}};
  DhTrng b{{.seed = 2}};
  EXPECT_NE(a.generate(5000), b.generate(5000));
}

TEST(DhTrng, OutputIsBalanced) {
  DhTrng t{{.seed = 9}};
  const auto bits = t.generate(100000);
  EXPECT_LT(stats::bias_percent(bits), 1.0);
}

TEST(DhTrng, LowAutocorrelation) {
  DhTrng t{{.seed = 10}};
  const auto bits = t.generate(100000);
  for (double acf : stats::autocorrelation(bits, 10)) {
    EXPECT_LT(std::abs(acf), 0.02);
  }
}

TEST(DhTrng, ResourcesMatchPaper) {
  DhTrng t{{}};
  const sim::ResourceCounts rc = t.resources();
  EXPECT_EQ(rc.luts, 23u);
  EXPECT_EQ(rc.muxes, 4u);
  EXPECT_EQ(rc.dffs, 14u);
  EXPECT_EQ(t.slice_report().slice_count(), 8u);
}

TEST(DhTrng, NameReflectsAblations) {
  EXPECT_EQ(DhTrng{{}}.name(), "DH-TRNG");
  EXPECT_EQ((DhTrng{{.coupling = false}}).name(), "DH-TRNG/no-coupling");
  EXPECT_EQ((DhTrng{{.feedback = false}}).name(), "DH-TRNG/no-feedback");
}

TEST(DhTrng, RestartKeepsBalanceAndChangesOutput) {
  DhTrng t{{.seed = 11}};
  const auto first = t.generate(2000);
  t.restart();
  const auto second = t.generate(2000);
  EXPECT_NE(first, second);  // noise does not replay
  EXPECT_LT(stats::bias_percent(second), 3.0);
}

TEST(DhTrng, MetastableFractionIsSubstantial) {
  // The hybrid units are designed to spend much of their time harvesting
  // metastability (Section 3.1).
  DhTrng t{{.seed = 12}};
  t.generate(20000);
  EXPECT_GT(t.metastable_fraction(), 0.3);
}

TEST(DhTrng, ActivityEstimateIsPlausible) {
  DhTrng t{{}};
  const fpga::ActivityEstimate a = t.activity();
  EXPECT_EQ(a.flip_flops, 14u);
  EXPECT_GT(a.logic_toggle_ghz, 5.0);
  EXPECT_LT(a.logic_toggle_ghz, 200.0);
}

TEST(DhTrng, GenerateAppends) {
  DhTrng t{{.seed = 13}};
  support::BitStream bs;
  t.generate(bs, 100);
  t.generate(bs, 50);
  EXPECT_EQ(bs.size(), 150u);
}

TEST(DhTrng, PvtCornerStillBalanced) {
  DhTrng t{{.pvt = {80.0, 0.8}, .seed = 14}};
  const auto bits = t.generate(50000);
  EXPECT_LT(stats::bias_percent(bits), 2.0);
}

TEST(DhTrng, AblationsStayBalanced) {
  for (auto [coupling, feedback] :
       {std::pair{false, true}, {true, false}, {false, false}}) {
    DhTrng t{{.seed = 15, .coupling = coupling, .feedback = feedback}};
    const auto bits = t.generate(50000);
    EXPECT_LT(stats::bias_percent(bits), 3.0)
        << "coupling=" << coupling << " feedback=" << feedback;
  }
}

}  // namespace
}  // namespace dhtrng::core
