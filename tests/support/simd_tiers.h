// Test helpers for running one computation on every SIMD dispatch tier the
// host supports (support/simd_noise.h), so bit-identity is checked between
// every pair of tiers rather than only between the detected tier and the
// scalar tier.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "support/simd_noise.h"

namespace dhtrng::testsupport {

/// RAII tier override: force a tier for one scope and restore the previous
/// one on exit, so test order never leaks an override into other tests.
class TierScope {
 public:
  explicit TierScope(support::simd::Tier t)
      : prev_(support::simd::force_tier(t)) {}
  ~TierScope() { support::simd::force_tier(prev_); }
  TierScope(const TierScope&) = delete;
  TierScope& operator=(const TierScope&) = delete;

 private:
  support::simd::Tier prev_;
};

/// Every tier this CPU can run, Scalar first.
inline std::vector<support::simd::Tier> supported_tiers() {
  using support::simd::Tier;
  std::vector<Tier> tiers;
  for (Tier t : {Tier::Scalar, Tier::Avx2, Tier::Avx512, Tier::Neon}) {
    if (support::simd::tier_supported(t)) tiers.push_back(t);
  }
  return tiers;
}

/// f() evaluated once per supported tier (Scalar first), each run under
/// its own TierScope.  Comparing every entry with the first checks every
/// tier pair, because exact equality is transitive.
template <class F>
auto run_per_tier(F f) {
  std::vector<std::pair<support::simd::Tier, decltype(f())>> runs;
  for (support::simd::Tier t : supported_tiers()) {
    TierScope scope(t);
    runs.emplace_back(t, f());
  }
  return runs;
}

/// "avx512 vs scalar" — a label for a tier-parity mismatch message.
inline std::string tier_pair(support::simd::Tier t, support::simd::Tier ref) {
  return std::string(support::simd::tier_name(t)) + " vs " +
         support::simd::tier_name(ref);
}

}  // namespace dhtrng::testsupport
