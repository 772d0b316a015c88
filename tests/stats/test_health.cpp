#include "stats/health.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/dhtrng.h"
#include "support/rng.h"

namespace dhtrng::stats {
namespace {

TEST(RepetitionCountTest, CutoffFollowsSpec) {
  // C = 1 + ceil(20 / H).
  EXPECT_EQ(RepetitionCountTest(1.0).cutoff(), 21u);
  EXPECT_EQ(RepetitionCountTest(0.5).cutoff(), 41u);
}

TEST(RepetitionCountTest, AlarmsOnStuckSource) {
  RepetitionCountTest rct(1.0);
  for (int i = 0; i < 20; ++i) EXPECT_TRUE(rct.feed(true));
  EXPECT_FALSE(rct.feed(true));  // 21st repetition
  EXPECT_TRUE(rct.alarmed());
}

TEST(RepetitionCountTest, HealthyOnIdealSource) {
  support::Xoshiro256 rng(1);
  RepetitionCountTest rct(1.0);
  for (int i = 0; i < 1000000; ++i) {
    ASSERT_TRUE(rct.feed(rng.bernoulli(0.5))) << "at bit " << i;
  }
}

TEST(RepetitionCountTest, ResetClearsAlarm) {
  RepetitionCountTest rct(1.0);
  for (int i = 0; i < 30; ++i) rct.feed(true);
  ASSERT_TRUE(rct.alarmed());
  rct.reset();
  EXPECT_FALSE(rct.alarmed());
  EXPECT_TRUE(rct.feed(true));
}

// --- RCT word path: a 64-bit word that cannot reach the cutoff takes an
// --- O(1) step; the per-bit feed() is the oracle at every word seam. ---

/// A stream with one planted run of `len` copies of `value` starting at
/// bit `start`, inside filler whose own runs never exceed 4, framed so the
/// planted run is exactly `len` long.
std::vector<bool> stream_with_run(std::size_t start, std::size_t len,
                                  bool value, std::size_t total,
                                  std::uint64_t seed) {
  support::SplitMix64 rng(seed);
  std::vector<bool> bits;
  std::size_t filler_run = 0;
  const auto filler = [&] {
    bool bit = (rng.next() & 1) != 0;
    if (!bits.empty() && filler_run == 4 && bit == bits.back()) bit = !bit;
    filler_run = (!bits.empty() && bit == bits.back()) ? filler_run + 1 : 1;
    bits.push_back(bit);
  };
  while (bits.size() + 1 < start) filler();
  if (start > 0) bits.push_back(!value);
  for (std::size_t i = 0; i < len; ++i) bits.push_back(value);
  bits.push_back(!value);
  filler_run = 1;
  while (bits.size() < total) filler();
  return bits;
}

/// Feeds `bits` per bit to one RCT and in 64-bit words to another, and
/// checks return value, alarm and run length agree at every word seam.
/// Returns the index of the per-bit alarm (or bits.size() if none).
std::size_t expect_word_feed_matches_bits(const std::vector<bool>& bits,
                                          double h) {
  RepetitionCountTest serial(h);
  RepetitionCountTest batch(h);
  std::size_t alarm_at = bits.size();
  for (std::size_t i = 0; i < bits.size(); i += 64) {
    const std::size_t nbits = std::min<std::size_t>(64, bits.size() - i);
    std::uint64_t word = 0;
    bool serial_ok = true;
    for (std::size_t j = 0; j < nbits; ++j) {
      if (bits[i + j]) word |= std::uint64_t{1} << j;
      const bool ok = serial.feed(bits[i + j]);
      if (!ok && serial_ok && alarm_at == bits.size()) alarm_at = i + j;
      serial_ok = ok && serial_ok;
    }
    EXPECT_EQ(serial_ok, batch.feed_word(word, nbits)) << "word at bit " << i;
    EXPECT_EQ(serial.alarmed(), batch.alarmed()) << "word at bit " << i;
    EXPECT_EQ(serial.run(), batch.run()) << "word at bit " << i;
  }
  return alarm_at;
}

TEST(RepetitionCountTest, WordPathAlarmsAtTheBitOracleSample) {
  // Cutoffs below a word (24, 41), just above one (68) and well above
  // (81); planted runs one short of, at, and far past the cutoff, at
  // every start offset over two word seams — so the alarm sample lands on
  // word offsets 0, 63 and 64 and runs cross one or two seams.
  for (const double h : {0.9, 0.5, 0.3, 0.25}) {
    const std::size_t cutoff = RepetitionCountTest(h).cutoff();
    for (const std::size_t len : {cutoff - 1, cutoff, cutoff + 70}) {
      for (std::size_t start = 40; start < 200; ++start) {
        for (const bool value : {false, true}) {
          SCOPED_TRACE(testing::Message() << "cutoff=" << cutoff << " len="
                                          << len << " start=" << start
                                          << " value=" << value);
          const auto bits =
              stream_with_run(start, len, value, start + len + 150, start);
          const std::size_t alarm_at = expect_word_feed_matches_bits(bits, h);
          if (len >= cutoff) {
            EXPECT_EQ(alarm_at, start + cutoff - 1);
          } else {
            EXPECT_EQ(alarm_at, bits.size());
          }
        }
      }
    }
  }
}

TEST(RepetitionCountTest, WordPathPinnedSeamCases) {
  const std::size_t cutoff = RepetitionCountTest(0.9).cutoff();
  ASSERT_EQ(cutoff, 24u);
  const auto alarm_at = [](std::size_t start, std::size_t len, double h) {
    return expect_word_feed_matches_bits(
        stream_with_run(start, len, true, 400, start + len), h);
  };
  // Run wholly inside word 0, alarming on its last bit (offset 63).
  EXPECT_EQ(alarm_at(40, cutoff, 0.9), 63u);
  // Run crossing the seam by one bit: alarm at stream offset 64, the
  // first bit of word 1, reached only through the carried-in run.
  EXPECT_EQ(alarm_at(41, cutoff, 0.9), 64u);
  // Run starting on word 1's offset 0.
  EXPECT_EQ(alarm_at(64, cutoff, 0.9), 87u);
  // Run crossing the next seam and continuing past the cutoff: alarm on
  // offset 0 of word 2, run frozen at the cutoff.
  EXPECT_EQ(alarm_at(105, cutoff + 6, 0.9), 128u);
  // One short of the cutoff, wholly inside a word: no alarm.
  EXPECT_EQ(alarm_at(130, cutoff - 1, 0.9), 400u);
  // Cutoff above a word (H = 0.25): a run covering all of word 1 plus
  // both neighbours' edges, one short of and at the cutoff.
  const std::size_t long_cutoff = RepetitionCountTest(0.25).cutoff();
  ASSERT_GT(long_cutoff, 64u);
  EXPECT_EQ(alarm_at(50, long_cutoff - 1, 0.25), 400u);
  EXPECT_EQ(alarm_at(50, long_cutoff, 0.25), 50 + long_cutoff - 1);
}

TEST(AdaptiveProportionTest, CutoffNearStandardValue) {
  // SP 800-90B cites C = 589 for H = 1, W = 1024 (binomial 2^-20 tail).
  AdaptiveProportionTest apt(1.0);
  EXPECT_NEAR(static_cast<double>(apt.cutoff()), 589.0, 10.0);
}

TEST(AdaptiveProportionTest, AlarmsOnHeavyBias) {
  support::Xoshiro256 rng(2);
  AdaptiveProportionTest apt(1.0);
  bool healthy = true;
  for (int i = 0; i < 1024 * 8 && healthy; ++i) {
    healthy = apt.feed(rng.bernoulli(0.75));
  }
  EXPECT_FALSE(healthy);
}

TEST(AdaptiveProportionTest, HealthyOnIdealSource) {
  support::Xoshiro256 rng(3);
  AdaptiveProportionTest apt(1.0);
  for (int i = 0; i < 1024 * 200; ++i) {
    ASSERT_TRUE(apt.feed(rng.bernoulli(0.5))) << "window " << i / 1024;
  }
}

TEST(AdaptiveProportionTest, AlarmsExactlyAtSpecCutoff) {
  // SP 800-90B 4.4.2: the counter starts at 1 on the window's reference
  // sample, so C *total* occurrences of that value (reference included)
  // must alarm — feeding the reference value C times in a row does it.
  AdaptiveProportionTest apt(1.0, 64);
  const std::size_t c = apt.cutoff();
  ASSERT_GT(c, 2u);
  ASSERT_LT(c, 64u);
  bool healthy = true;
  for (std::size_t i = 0; i < c; ++i) healthy = apt.feed(true);
  EXPECT_FALSE(healthy);
  EXPECT_TRUE(apt.alarmed());
}

TEST(AdaptiveProportionTest, OneBelowCutoffStaysHealthy) {
  // C - 1 total occurrences (the forced near-failure stream) must NOT
  // alarm, in this window or after the counter resets in the next one.
  AdaptiveProportionTest apt(1.0, 64);
  const std::size_t c = apt.cutoff();
  for (int window = 0; window < 2; ++window) {
    for (std::size_t i = 0; i < c - 1; ++i) ASSERT_TRUE(apt.feed(true));
    for (std::size_t i = c - 1; i < 64; ++i) ASSERT_TRUE(apt.feed(false));
  }
  EXPECT_FALSE(apt.alarmed());
}

TEST(AdaptiveProportionTest, LowerClaimToleratesMoreBias) {
  AdaptiveProportionTest strict(1.0);
  AdaptiveProportionTest lax(0.3);
  EXPECT_GT(lax.cutoff(), strict.cutoff());
}

TEST(HealthMonitor, PassesOnDhTrng) {
  core::DhTrng trng({.seed = 4});
  HealthMonitor monitor(0.9);
  for (int i = 0; i < 200000; ++i) {
    ASSERT_TRUE(monitor.feed(trng.next_bit())) << "at bit " << i;
  }
  EXPECT_TRUE(monitor.healthy());
}

TEST(HealthMonitor, CatchesDegradedGenerator) {
  // Failure injection: a DH-TRNG whose noise has collapsed to 0.1% and
  // whose metastability is gone produces structured output that the
  // health tests must flag within a bounded number of bits.
  core::DhTrng trng({.seed = 5, .coupling = false, .feedback = false,
                     .noise_scale = 0.0001});
  HealthMonitor monitor(0.9);
  bool alarmed = false;
  for (int i = 0; i < 2000000 && !alarmed; ++i) {
    alarmed = !monitor.feed(trng.next_bit());
  }
  // A fully-degenerate source must alarm; a merely-structured one may pass
  // RCT/APT (they only catch gross failures) — accept either alarm or a
  // completed run, but verify the stuck-at case alarms definitively:
  HealthMonitor stuck_monitor(0.9);
  bool stuck_alarm = false;
  for (int i = 0; i < 100 && !stuck_alarm; ++i) {
    stuck_alarm = !stuck_monitor.feed(true);
  }
  EXPECT_TRUE(stuck_alarm);
}

TEST(HealthMonitor, ResetRestoresHealth) {
  HealthMonitor monitor(0.9);
  for (int i = 0; i < 100; ++i) monitor.feed(true);
  ASSERT_FALSE(monitor.healthy());
  monitor.reset();
  EXPECT_TRUE(monitor.healthy());
}

}  // namespace
}  // namespace dhtrng::stats
