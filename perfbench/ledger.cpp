// Isolated layer ledger: one thread, one buffer derived from the workload
// seed, and a timed loop around each layer's public entry point.  Each
// figure is the median of kReps repetitions of at least kRepSeconds, given
// per unit of its own base (byte, bit, sample, frame, call or event).
#include <vector>

#include "core/dhtrng.h"
#include "core/dhtrng_soa.h"
#include "core/drbg.h"
#include "core/entropy_pool.h"
#include "service/protocol.h"
#include "stats/health.h"
#include "stats/streaming.h"
#include "support/simd_noise.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kReps = 5;
constexpr double kRepSeconds = 0.05;
/// Bits the isolated gate-level run generates (fixed, so its event and
/// metastability counts are exact for a given seed).
constexpr std::size_t kSimBits = 4096;

/// Median over kReps of (wall ns per unit) for `body`, where one call of
/// `body` does `units` units of work.  One untimed call warms caches.
template <class Body>
double ns_per_unit(Body&& body, double units) {
  body();
  std::vector<double> reps;
  for (int r = 0; r < kReps; ++r) {
    const std::uint64_t t0 = now_ns();
    const std::uint64_t due =
        t0 + static_cast<std::uint64_t>(kRepSeconds * 1e9);
    std::uint64_t calls = 0;
    std::uint64_t t1 = t0;
    do {
      body();
      ++calls;
      t1 = now_ns();
    } while (t1 < due);
    reps.push_back(static_cast<double>(t1 - t0) /
                   (static_cast<double>(calls) * units));
  }
  return median(reps);
}

/// Keeps results observable so timed calls are not optimised away.
volatile std::uint64_t g_sink = 0;

}  // namespace

void run_layer_ledger(std::uint64_t seed, Result& out,
                      std::uint64_t* pool_quarantines) {
  // One buffer of source-like words shared by the feed-path layers.
  constexpr std::size_t kBufBytes = 1 << 16;
  std::vector<std::uint64_t> words(kBufBytes / 8);
  {
    dhtrng::support::Xoshiro256 rng(derive_seed(seed, 3));
    for (auto& w : words) w = rng();
  }
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(words.data());

  {
    dhtrng::core::EntropyPoolConfig cfg;
    cfg.producers = 1;
    cfg.seed = derive_seed(seed, 4);
    dhtrng::core::EntropyPool pool(cfg, [](std::size_t, std::uint64_t s) {
      return std::make_unique<XoshiroSource>(s);
    });
    out.add("pool.get_ns_per_byte",
            ns_per_unit([&] { g_sink = g_sink + pool.get_bytes(4096)[0]; },
                        4096.0),
            "ns/B");
    if (pool_quarantines != nullptr) {
      *pool_quarantines = pool.quarantine_events();
    }
  }

  {
    dhtrng::core::DhTrngSoAConfig cfg;
    cfg.core.seed = derive_seed(seed, 5);
    cfg.noise_mode = dhtrng::noise::NoiseMode::Fast;
    dhtrng::core::DhTrngSoA soa(cfg);
    std::vector<std::uint64_t> buf(64);
    out.add("soa.generate_ns_per_bit",
            ns_per_unit([&] {
              soa.generate_words(buf.data(), buf.size());
              g_sink = g_sink + buf[0];
            }, 64.0 * 64.0),
            "ns/bit");
  }

  {
    std::uint64_t s[4] = {words[0] | 1u, words[1], words[2], words[3]};
    std::vector<double> normals(1024);
    out.add("noise.gauss_fill_ns_per_sample",
            ns_per_unit([&] {
              dhtrng::support::simd::boxmuller_fill(s, normals.data(),
                                                    normals.size());
              g_sink = g_sink + static_cast<std::uint64_t>(normals[0] > 0.0);
            }, 1024.0),
            "ns/sample");
  }

  {
    dhtrng::stats::HealthMonitor monitor(0.9);
    out.add("health.feed_ns_per_byte",
            ns_per_unit([&] {
              monitor.reset();
              bool ok = true;
              for (std::uint64_t w : words) ok = monitor.feed_word(w, 64) && ok;
              g_sink = g_sink + (ok ? 1u : 0u);
            }, static_cast<double>(kBufBytes)),
            "ns/B");
  }

  {
    dhtrng::stats::streaming::SourceTracker tracker;
    out.add("tracker.feed_ns_per_byte",
            ns_per_unit([&] { tracker.feed_bytes(bytes, kBufBytes); },
                        static_cast<double>(kBufBytes)),
            "ns/B");
    g_sink = g_sink + tracker.bits();
  }

  {
    const std::vector<std::uint8_t> key(bytes, bytes + 32);
    out.add("protocol.encode_ns_per_frame",
            ns_per_unit([&] {
              const auto frame = dhtrng::service::encode_response_frame(
                  dhtrng::service::Status::Ok, 0, key);
              g_sink = g_sink + frame.size();
            }, 1.0),
            "ns/frame");
  }

  {
    XoshiroSource entropy(derive_seed(seed, 6));
    dhtrng::core::HmacDrbg drbg(entropy);
    std::uint8_t key[32];
    out.add("drbg.generate_ns_per_call",
            ns_per_unit([&] {
              drbg.generate(key, sizeof(key));
              g_sink = g_sink + key[0];
            }, 1.0),
            "ns/call");
  }

  {
    dhtrng::core::DhTrngConfig cfg;
    cfg.seed = derive_seed(seed, 7);
    cfg.backend = dhtrng::core::Backend::GateLevel;
    cfg.noise_mode = dhtrng::noise::NoiseMode::Fast;
    dhtrng::core::DhTrng trng(cfg);
    dhtrng::support::BitStream bits;
    trng.generate(bits, 1);  // elaboration and first clock, untimed
    const auto& sim = *trng.simulator();
    const std::uint64_t e0 = sim.events_processed();
    const std::uint64_t meta0 = sim.metastable_samples();
    const std::uint64_t runts0 = sim.runts_filtered();
    const std::uint64_t t0 = now_ns();
    trng.generate(bits, kSimBits);
    const std::uint64_t t1 = now_ns();
    const double events = static_cast<double>(sim.events_processed() - e0);
    out.add("sim.events_per_s", events / (static_cast<double>(t1 - t0) / 1e9),
            "1/s");
    out.add("sim.events_per_bit", events / static_cast<double>(kSimBits),
            "events/bit");
    out.add("sim.metastable_samples",
            static_cast<double>(sim.metastable_samples() - meta0), "count");
    out.add("sim.runts_filtered",
            static_cast<double>(sim.runts_filtered() - runts0), "count");
  }
}

}  // namespace perfbench
