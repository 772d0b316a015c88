// Dispatch-tier parity of the simulator's calendar event loop.
//
// The loop (sim/simulator_loop.cpp) has a baseline and an AVX2 + FMA entry
// point, picked by support::simd::active_tier(); they differ only in
// whether the fast-noise delay fma is a libm call or an instruction, and
// fma rounds once either way.  So a run of the DH-TRNG netlist must apply
// the same events at the same times on every tier the host supports —
// compared here event for event (applied_events()), together with the
// event, runt and metastability counters and the sampled output bits.  The
// forced-scalar CI lanes run this suite with DHTRNG_FORCE_SCALAR=1, which
// makes the scalar loop the default one as well.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/netlist.h"
#include "fpga/device.h"
#include "sim/simulator.h"
#include "support/simd_tiers.h"

namespace dhtrng::sim {
namespace {

using testsupport::run_per_tier;
using testsupport::tier_pair;

constexpr double kHorizonPs = 250000.0;

struct RunSummary {
  std::vector<SimEvent> applied;
  std::uint64_t events = 0;
  std::uint64_t runts = 0;
  std::uint64_t metastable = 0;
  std::vector<std::uint8_t> samples;
};

RunSummary run_dhtrng(std::uint64_t seed, noise::NoiseMode mode,
                      Scheduler scheduler = Scheduler::Calendar) {
  const fpga::DeviceModel device = fpga::DeviceModel::artix7();
  const core::DhTrngNetlist netlist = core::build_dhtrng_netlist(device, 620.0);
  SimConfig config;
  config.seed = seed;
  config.gate_jitter = device.gate_jitter;
  config.noise_mode = mode;
  config.scheduler = scheduler;
  Simulator sim(netlist.circuit, config);
  sim.record_dff(netlist.out_dff);
  sim.record_applied_events();
  // Several run_until calls, so the loop is re-entered mid-schedule.
  for (double t = 50000.0; t <= kHorizonPs; t += 50000.0) sim.run_until(t);
  return {sim.applied_events(), sim.events_processed(), sim.runts_filtered(),
          sim.metastable_samples(), sim.samples(netlist.out_dff)};
}

void expect_same_run(const RunSummary& got, const RunSummary& want,
                     const std::string& what) {
  EXPECT_EQ(got.events, want.events) << what;
  EXPECT_EQ(got.runts, want.runts) << what;
  EXPECT_EQ(got.metastable, want.metastable) << what;
  EXPECT_EQ(got.samples, want.samples) << what;
  ASSERT_EQ(got.applied.size(), want.applied.size()) << what;
  for (std::size_t i = 0; i < want.applied.size(); ++i) {
    ASSERT_TRUE(got.applied[i] == want.applied[i])
        << what << ": first difference at applied event " << i;
  }
}

void expect_tiers_match(std::uint64_t seed, noise::NoiseMode mode) {
  const auto runs = run_per_tier([&] { return run_dhtrng(seed, mode); });
  const auto& [ref_tier, ref] = runs.front();
  // A run long enough to exercise the runt filter and the flip-flops'
  // metastability window, or the comparison would prove little.
  ASSERT_GT(ref.events, 10000u);
  ASSERT_GT(ref.runts, 0u);
  ASSERT_GT(ref.metastable, 0u);
  for (const auto& [tier, run] : runs) {
    expect_same_run(run, ref, tier_pair(tier, ref_tier));
  }
}

TEST(SimTierParity, FastNoiseDhTrngIdenticalOnEveryTier) {
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    expect_tiers_match(seed, noise::NoiseMode::Fast);
  }
}

TEST(SimTierParity, ExactNoiseDhTrngIdenticalOnEveryTier) {
  expect_tiers_match(3, noise::NoiseMode::Exact);
}

TEST(SimTierParity, FastNoiseTierLoopMatchesReferenceHeap) {
  // The reference scheduler never enters the calendar loop, so this ties
  // the dispatched loop (on whatever tier is active) to the oracle.
  expect_same_run(run_dhtrng(11, noise::NoiseMode::Fast),
                  run_dhtrng(11, noise::NoiseMode::Fast,
                             Scheduler::ReferenceHeap),
                  "calendar vs reference heap");
}

}  // namespace
}  // namespace dhtrng::sim
