#include "noise/jitter.h"

#include <cmath>

#include "support/simd_noise.h"

namespace dhtrng::noise {

SharedSupplyNoise::SharedSupplyNoise(double sigma_ps, std::uint64_t seed,
                                     double correlation)
    : sigma_(sigma_ps),
      rho_(correlation),
      innovation_sigma_(std::sqrt(1.0 - correlation * correlation) * sigma_ps),
      rng_(seed) {}

double SharedSupplyNoise::step_uncached() {
  // AR(1) with stationary sigma equal to sigma_: x' = rho x + sqrt(1-rho^2) w.
  value_ = rho_ * value_ + rng_.gaussian(0.0, innovation_sigma_);
  return value_;
}

void SharedSupplyNoise::refill() {
  // Fast mode refills in fixed kFastNoiseBlock-step blocks so the value
  // stream — and therefore fast-mode waveforms — is independent of
  // set_batch().  Exact mode honours batch_; its gaussian_fill stream is
  // chunking-invariant by construction, so any batch is bit-identical.
  const std::size_t n = mode_ == NoiseMode::Fast ? kFastNoiseBlock : batch_;
  block_.resize(n);
  if (mode_ == NoiseMode::Fast) {
    rng_.gaussian_fill_fast(block_.data(), n);
  } else {
    rng_.gaussian_fill(block_.data(), n);
  }
  // Run the recurrence over the pre-drawn innovations; arithmetic is
  // identical to n successive step_uncached() calls
  // (gaussian(0, s) == 0.0 + s * gaussian()).
  double v = value_;
  for (std::size_t i = 0; i < n; ++i) {
    v = rho_ * v + (0.0 + innovation_sigma_ * block_[i]);
    block_[i] = v;
  }
  block_pos_ = 0;
}

EdgeJitterSource::EdgeJitterSource(const JitterParams& params,
                                   std::uint64_t seed,
                                   SharedSupplyNoise* shared)
    : params_(params),
      rng_(seed),
      // 12 octaves spans ~4 decades of 1/f; amplitude chosen so the marginal
      // sigma equals flicker_sigma_ps.
      flicker_(params.flicker_sigma_ps / std::sqrt(12.0), 12, seed ^ 0x9e3779b97f4a7c15ULL),
      shared_(shared) {}

void EdgeJitterSource::set_batch(std::size_t n) {
  // Takes effect at the next refill; draws already in the block are
  // consumed first, so the per-stream sequence never skips or repeats.
  batch_ = n > 1 ? n : 1;
}

void EdgeJitterSource::refill() {
  white_block_.resize(batch_);
  flicker_block_.resize(batch_);
  // The white and flicker components come from independent streams, so
  // filling one whole block and then the other consumes each stream in
  // exactly the per-call order.
  rng_.gaussian_fill(white_block_.data(), batch_);
  flicker_.fill(flicker_block_.data(), batch_);
  block_pos_ = 0;
}

void EdgeJitterSource::enable_fast_delay(double base_delay_ps, double floor_ps,
                                         const PvtScaling& scale) {
  fast_base_ = base_delay_ps;
  fast_floor_ = floor_ps;
  fast_white_gain_ = params_.white_sigma_ps * scale.white_jitter;
  fast_flicker_gain_ = scale.correlated_noise;
  // Mirrors combine(): the shared term is gated on correlated_sigma_ps but
  // shared_->step() is still consumed whenever a supply is attached, so
  // the global AR(1) consumption order matches the structure of the exact
  // path.
  fast_shared_gain_ =
      params_.correlated_sigma_ps > 0.0 ? scale.correlated_noise : 0.0;
  delay_block_.clear();
  delay_pos_ = 0;
}

void EdgeJitterSource::refill_fast() {
  // Fixed-size blocks: every fast-mode component is chunk-aligned at
  // kFastNoiseBlock, so fast waveforms do not depend on set_batch().
  constexpr std::size_t n = kFastNoiseBlock;
  double white[n];
  double flicker[n];
  delay_block_.resize(n);
  rng_.gaussian_fill_fast(white, n);
  flicker_.fill_fast(flicker, n);
  support::simd::delay_combine_batch(white, flicker, fast_white_gain_,
                                     fast_flicker_gain_, fast_base_,
                                     delay_block_.data(), n);
  delay_pos_ = 0;
}

double EdgeJitterSource::next_edge_jitter_slow(const PvtScaling& scale) {
  if (batch_ > 1) {
    // Block exhausted: refill and consume the first draw.  (A
    // set_batch(1) downgrade drains leftovers through the inline path
    // first, so the per-stream sequence never skips or repeats.)
    refill();
    const double white = white_block_[block_pos_];
    const double flicker = flicker_block_[block_pos_];
    ++block_pos_;
    return combine(white, flicker, scale);
  }
  // Historical per-call draws.
  const double white = rng_.gaussian();
  const double flicker = flicker_.next();
  return combine(white, flicker, scale);
}

}  // namespace dhtrng::noise
