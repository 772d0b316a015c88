#include "core/entropy_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iterator>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/sources.h"
#include "support/fault_sources.h"
#include "support/rng.h"

namespace dhtrng::core {
namespace {

using testsupport::BiasedSource;
using testsupport::IdealSource;
using testsupport::IntermittentDropoutSource;
using testsupport::StuckSource;

/// Polls `done` with a bounded grace window (producer threads advance on
/// their own schedule; the fault schedules themselves are bit-exact).
template <typename Predicate>
bool eventually(Predicate done, int timeout_ms = 10000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

EntropyPool::SourceFactory ideal_factory() {
  return [](std::size_t, std::uint64_t seed) {
    return std::make_unique<IdealSource>(seed);
  };
}

TEST(EntropyPool, ServesRequestedBytes) {
  EntropyPool pool({.producers = 3, .buffer_bytes = 1024, .block_bits = 256},
                   ideal_factory());
  const auto bytes = pool.get_bytes(512);
  EXPECT_EQ(bytes.size(), 512u);
  EXPECT_EQ(pool.healthy_producers(), 3u);
  EXPECT_EQ(pool.quarantine_events(), 0u);
}

TEST(EntropyPool, OutputLooksRandom) {
  EntropyPool pool({.producers = 2, .buffer_bytes = 4096, .block_bits = 512},
                   ideal_factory());
  const auto bytes = pool.get_bytes(8192);
  std::size_t ones = 0;
  for (std::uint8_t b : bytes) {
    ones += static_cast<std::size_t>(__builtin_popcount(b));
  }
  const double bias = static_cast<double>(ones) / (8192.0 * 8.0);
  EXPECT_NEAR(bias, 0.5, 0.02);
}

TEST(EntropyPool, RejectsBadConfig) {
  EXPECT_THROW(EntropyPool({.producers = 0}, ideal_factory()),
               std::invalid_argument);
  EXPECT_THROW(EntropyPool({.block_bits = 12}, ideal_factory()),
               std::invalid_argument);
  // A multiple of 8 but not of 64: blocks are whole 64-bit words.
  EXPECT_THROW(EntropyPool({.block_bits = 72}, ideal_factory()),
               std::invalid_argument);
  EXPECT_THROW(EntropyPool({.block_bits = 0}, ideal_factory()),
               std::invalid_argument);
}

TEST(EntropyPool, BufferCapacityRoundsUpToWholeBlocks) {
  // Blocks are published whole, so the buffer holds a whole number of
  // them — at least one, even when buffer_bytes is smaller than a block.
  const auto capacity = [](std::size_t buffer_bytes, std::size_t block_bits) {
    EntropyPool pool({.producers = 1, .buffer_bytes = buffer_bytes,
                      .block_bits = block_bits},
                     ideal_factory());
    return pool.buffer_capacity();
  };
  EXPECT_EQ(capacity(128, 512), 128u);
  EXPECT_EQ(capacity(100, 512), 128u);
  EXPECT_EQ(capacity(10, 512), 64u);
  EXPECT_EQ(capacity(0, 4096), 512u);
  EXPECT_EQ(capacity(1000, 768), 1056u);  // 11 blocks of 96 bytes

  // A buffer smaller than one block still serves (no deadlock).
  EntropyPool pool({.producers = 2, .buffer_bytes = 16, .block_bits = 4096},
                   ideal_factory());
  EXPECT_EQ(pool.get_bytes(2048).size(), 2048u);
}

// --- Stream identity: the pool serves each producer's source stream
// --- verbatim, MSB-first, a whole block at a time. ----------------------

/// Records the seed of every source the pool builds, per producer slot.
struct SeedLog {
  std::mutex mutex;
  std::vector<std::vector<std::uint64_t>> seeds;

  explicit SeedLog(std::size_t producers) : seeds(producers) {}
  EntropyPool::SourceFactory factory() {
    return [this](std::size_t index, std::uint64_t seed) {
      std::lock_guard<std::mutex> lock(mutex);
      seeds[index].push_back(seed);
      return std::make_unique<IdealSource>(seed);
    };
  }
  std::uint64_t first(std::size_t index) {
    std::lock_guard<std::mutex> lock(mutex);
    return seeds[index].front();
  }
};

/// The first `n` bytes of `source`'s next_bit() stream, packed MSB-first.
std::vector<std::uint8_t> msb_first_bytes(TrngSource& source, std::size_t n) {
  std::vector<std::uint8_t> bytes(n);
  for (std::uint8_t& v : bytes) {
    for (int b = 0; b < 8; ++b) {
      v = static_cast<std::uint8_t>((v << 1) | (source.next_bit() ? 1 : 0));
    }
  }
  return bytes;
}

/// Pulls `total` bytes in uneven request sizes (partial spans, requests
/// straddling block seams).
std::vector<std::uint8_t> drain_unevenly(EntropyPool& pool, std::size_t total) {
  static constexpr std::size_t kSizes[] = {1, 37, 64, 100, 3, 511, 200};
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; out.size() < total; ++i) {
    const std::size_t n =
        std::min(kSizes[i % std::size(kSizes)], total - out.size());
    const auto got = pool.get_bytes(n);
    out.insert(out.end(), got.begin(), got.end());
  }
  return out;
}

TEST(EntropyPool, SingleProducerServesMsbFirstPackingOfTwinStream) {
  for (const bool certify : {true, false}) {
    SCOPED_TRACE(testing::Message() << "certify=" << certify);
    constexpr std::size_t kBlockBits = 512;
    SeedLog log(1);
    // H = 0.5 puts the RCT/APT false-alarm rate far below one per test,
    // so no reseed splices a second stream in.
    EntropyPool pool({.producers = 1, .buffer_bytes = 1024,
                      .block_bits = kBlockBits, .min_entropy_per_bit = 0.5,
                      .seed = 77, .certify = certify},
                     log.factory());
    const auto served = drain_unevenly(pool, 4096);
    pool.stop();
    ASSERT_EQ(pool.quarantine_events(), 0u);

    IdealSource twin(log.first(0));
    const std::size_t produced = pool.bytes_produced();
    const auto expected = msb_first_bytes(twin, produced + kBlockBits / 8);
    ASSERT_GE(produced, served.size());
    EXPECT_TRUE(std::equal(served.begin(), served.end(), expected.begin()));

    const PoolCertSnapshot cert = pool.cert_snapshot();
    if (!certify) {
      EXPECT_TRUE(cert.producers.empty());
      continue;
    }
    // The tracker saw every block that passed the gate: the produced
    // ones, plus at most the one whose push the stop() cut short.
    ASSERT_EQ(cert.producers.size(), 1u);
    const std::size_t tracked = cert.producers[0].bits / 8;
    EXPECT_TRUE(tracked == produced || tracked == produced + kBlockBits / 8);
    stats::streaming::SourceTracker replica(pool.tracker_config());
    replica.feed_bytes(expected.data(), tracked);
    const stats::streaming::Snapshot a = replica.snapshot();
    const stats::streaming::Snapshot& b = cert.producers[0];
    EXPECT_EQ(a.ones, b.ones);
    EXPECT_EQ(a.runs_v, b.runs_v);
    EXPECT_EQ(a.cusum_fwd_peak, b.cusum_fwd_peak);
    EXPECT_EQ(a.cusum_bwd_peak, b.cusum_bwd_peak);
    EXPECT_EQ(a.block_sum_sq, b.block_sum_sq);
    EXPECT_EQ(a.markov_t11, b.markov_t11);
    EXPECT_EQ(a.markov_t10, b.markov_t10);
    EXPECT_EQ(a.markov_t01, b.markov_t01);
    EXPECT_EQ(a.windows, b.windows);
    EXPECT_EQ(a.window_markov_h_min, b.window_markov_h_min);
    EXPECT_EQ(a.pass(), b.pass());
  }
}

TEST(EntropyPool, ManyProducersServeWholeBlocksFromTwinStreams) {
  // Each aligned block-sized span a lone consumer reads is the next block
  // of exactly one producer's twin stream.
  constexpr std::size_t kProducers = 3;
  constexpr std::size_t kBlockBytes = 64;
  SeedLog log(kProducers);
  EntropyPool pool({.producers = kProducers, .buffer_bytes = 256,
                    .block_bits = kBlockBytes * 8, .min_entropy_per_bit = 0.5,
                    .seed = 78},
                   log.factory());
  const auto served = drain_unevenly(pool, 96 * kBlockBytes);
  pool.stop();
  ASSERT_EQ(pool.quarantine_events(), 0u);

  std::vector<std::vector<std::uint8_t>> twins;
  for (std::size_t p = 0; p < kProducers; ++p) {
    IdealSource twin(log.first(p));
    twins.push_back(msb_first_bytes(twin, served.size()));
  }
  std::vector<std::size_t> cursor(kProducers, 0);
  for (std::size_t off = 0; off < served.size(); off += kBlockBytes) {
    std::size_t matches = 0;
    for (std::size_t p = 0; p < kProducers; ++p) {
      if (cursor[p] + kBlockBytes <= twins[p].size() &&
          std::equal(served.begin() + static_cast<std::ptrdiff_t>(off),
                     served.begin() +
                         static_cast<std::ptrdiff_t>(off + kBlockBytes),
                     twins[p].begin() +
                         static_cast<std::ptrdiff_t>(cursor[p]))) {
        cursor[p] += kBlockBytes;
        ++matches;
      }
    }
    ASSERT_EQ(matches, 1u) << "span at byte " << off;
  }
}

TEST(EntropyPool, ConcurrentConsumersDrainWithoutLossOrDuplication) {
  EntropyPool pool({.producers = 4, .buffer_bytes = 512, .block_bits = 256},
                   ideal_factory());
  std::atomic<std::size_t> total{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 4; ++c) {
    consumers.emplace_back([&pool, &total] {
      for (int i = 0; i < 10; ++i) {
        total += pool.get_bytes(100).size();
      }
    });
  }
  for (auto& t : consumers) t.join();
  EXPECT_EQ(total.load(), 4u * 10u * 100u);
  // A producer counts a block after publishing it, so a consumer can pop
  // the bytes a moment before the count covers them.
  EXPECT_TRUE(eventually([&] { return pool.bytes_produced() >= total.load(); }))
      << pool.bytes_produced() << " produced < " << total.load() << " served";
}

TEST(EntropyPool, QuarantinesAndReseedsFailingProducer) {
  // Producer 0 sticks at 0 after 4000 bits; its replacement (same factory,
  // fresh seed) is healthy.  The pool must alarm on the stuck block,
  // reseed, and keep serving — with no producer permanently retired.
  std::atomic<int> builds_of_producer0{0};
  EntropyPool pool(
      {.producers = 2, .buffer_bytes = 2048, .block_bits = 512},
      [&](std::size_t index, std::uint64_t seed) -> std::unique_ptr<TrngSource> {
        if (index == 0 && builds_of_producer0.fetch_add(1) == 0) {
          return std::make_unique<StuckSource>(seed, 4000);
        }
        return std::make_unique<IdealSource>(seed);
      });
  // Pull enough to guarantee the stuck region was generated and gated.
  const auto bytes = pool.get_bytes(4096);
  EXPECT_EQ(bytes.size(), 4096u);
  // Wait for the quarantine to be observable (the producer alarms while
  // consumers drain; give it a bounded grace window).
  for (int i = 0; i < 200 && pool.quarantine_events() == 0; ++i) {
    pool.get_bytes(256);
  }
  EXPECT_GE(pool.quarantine_events(), 1u);
  EXPECT_GE(builds_of_producer0.load(), 2);  // initial + >= 1 reseed
  EXPECT_EQ(pool.healthy_producers(), 2u);
}

TEST(EntropyPool, StuckProducerNeverContaminatesOutput) {
  // One producer emits all-zero bits from the start, through every reseed.
  // Every byte it generates must be discarded by the health gate: with the
  // other producer ideal, long all-zero runs cannot appear in the output.
  EntropyPool pool(
      {.producers = 2, .buffer_bytes = 1024, .block_bits = 256},
      [](std::size_t index, std::uint64_t seed) -> std::unique_ptr<TrngSource> {
        if (index == 0) return std::make_unique<StuckSource>(seed, 0);
        return std::make_unique<IdealSource>(seed);
      });
  const auto bytes = pool.get_bytes(16384);
  std::size_t zero_run = 0, worst_run = 0;
  for (std::uint8_t b : bytes) {
    zero_run = b == 0 ? zero_run + 1 : 0;
    worst_run = std::max(worst_run, zero_run);
  }
  // A stuck block is 32 all-zero bytes; an ideal stream of 16 KiB has
  // ~2e-9 probability of even 4 consecutive zero bytes.
  EXPECT_LT(worst_run, 4u);
  EXPECT_EQ(pool.healthy_producers(), 1u);  // the stuck one retired
  EXPECT_GE(pool.quarantine_events(), 1u);
}

TEST(EntropyPool, RefusesOnlyWhenAllProducersUnhealthy) {
  // Both producers stuck from the start: after max_reseeds each, the pool
  // is exhausted and get_bytes must throw rather than emit unhealthy bytes.
  EntropyPool pool(
      {.producers = 2, .buffer_bytes = 256, .block_bits = 256,
       .max_reseeds = 2},
      [](std::size_t, std::uint64_t seed) {
        return std::make_unique<StuckSource>(seed, 0);
      });
  EXPECT_THROW(pool.get_bytes(64), EntropyExhausted);
  EXPECT_EQ(pool.healthy_producers(), 0u);
  EXPECT_EQ(pool.bytes_produced(), 0u);
}

TEST(EntropyPool, CleanShutdownWhileProducersBlocked) {
  // Destructor races producers blocked on a full buffer — must not hang.
  auto pool = std::make_unique<EntropyPool>(
      EntropyPoolConfig{.producers = 4, .buffer_bytes = 64, .block_bits = 256},
      ideal_factory());
  (void)pool->get_bytes(32);
  pool.reset();  // join all producers
  SUCCEED();
}

TEST(EntropyPool, StopIsIdempotentAndDrains) {
  EntropyPool pool({.producers = 2, .buffer_bytes = 512, .block_bits = 256},
                   ideal_factory());
  (void)pool.get_bytes(64);
  pool.stop();
  pool.stop();
  // After stop, the remaining buffered bytes drain, then it refuses.
  EXPECT_THROW(
      {
        for (;;) (void)pool.get_bytes(1);
      },
      EntropyExhausted);
}

// --- Full quarantine -> reseed -> retire state machine, driven by the
// --- deterministic fault sources in tests/support/fault_sources.h. ------

TEST(EntropyPool, ReseedCuresProducerAtMaxReseedsBoundary) {
  // Producer 0's first `max_reseeds` builds are dead on arrival; build
  // max_reseeds is healthy.  Exactly max_reseeds consecutive alarms is the
  // boundary the policy still tolerates: the producer must survive.
  constexpr std::size_t kMaxReseeds = 3;
  std::atomic<int> builds_of_producer0{0};
  EntropyPool pool(
      {.producers = 2, .buffer_bytes = 2048, .block_bits = 512,
       .max_reseeds = kMaxReseeds},
      [&](std::size_t index, std::uint64_t seed) -> std::unique_ptr<TrngSource> {
        if (index == 0 &&
            builds_of_producer0.fetch_add(1) < static_cast<int>(kMaxReseeds)) {
          return std::make_unique<StuckSource>(seed, 0);
        }
        return std::make_unique<IdealSource>(seed);
      });
  // The quarantine loop needs no consumer: alarmed blocks never reach the
  // buffer, so producer 0 marches through its stuck builds on its own.
  ASSERT_TRUE(eventually([&] {
    return builds_of_producer0.load() >= static_cast<int>(kMaxReseeds) + 1 &&
           pool.quarantine_events() >= kMaxReseeds;
  }));
  EXPECT_EQ(pool.quarantine_events(), kMaxReseeds);
  EXPECT_EQ(pool.reseed_events(), kMaxReseeds);
  EXPECT_EQ(pool.retired_producers(), 0u);
  EXPECT_EQ(pool.healthy_producers(), 2u);
  EXPECT_FALSE(pool.exhausted());
  EXPECT_EQ(pool.get_bytes(512).size(), 512u);  // still serving
}

TEST(EntropyPool, RetiresProducerOneAlarmPastMaxReseeds) {
  // Producer 0 is stuck on every build: alarm number max_reseeds + 1
  // crosses the boundary and the producer is retired permanently.
  constexpr std::size_t kMaxReseeds = 2;
  EntropyPool pool(
      {.producers = 2, .buffer_bytes = 2048, .block_bits = 512,
       .max_reseeds = kMaxReseeds},
      [](std::size_t index, std::uint64_t seed) -> std::unique_ptr<TrngSource> {
        if (index == 0) return std::make_unique<StuckSource>(seed, 0);
        return std::make_unique<IdealSource>(seed);
      });
  ASSERT_TRUE(eventually([&] { return pool.retired_producers() == 1; }));
  EXPECT_EQ(pool.quarantine_events(), kMaxReseeds + 1);
  EXPECT_EQ(pool.reseed_events(), kMaxReseeds);
  EXPECT_EQ(pool.healthy_producers(), 1u);
  EXPECT_FALSE(pool.exhausted());
  const PoolHealthSnapshot snap = pool.snapshot();
  EXPECT_EQ(snap.producers, 2u);
  EXPECT_EQ(snap.retired, 1u);
  EXPECT_EQ(snap.quarantines, kMaxReseeds + 1);
  EXPECT_EQ(snap.reseeds, kMaxReseeds);
  EXPECT_EQ(pool.get_bytes(256).size(), 256u);  // survivor keeps serving
}

TEST(EntropyPool, IntermittentDropoutQuarantinesWithoutRetiring) {
  // Producer 0's first build browns out for 300 bits starting at bit 1000
  // (well past the RCT cutoff of ~24, inside its second 512-bit block);
  // the rebuild is healthy.  One quarantine, one cure, no retirement.
  std::atomic<int> builds_of_producer0{0};
  EntropyPool pool(
      {.producers = 2, .buffer_bytes = 4096, .block_bits = 512},
      [&](std::size_t index, std::uint64_t seed) -> std::unique_ptr<TrngSource> {
        if (index == 0 && builds_of_producer0.fetch_add(1) == 0) {
          return std::make_unique<IntermittentDropoutSource>(
              seed, std::vector<std::uint64_t>{1000}, 300);
        }
        return std::make_unique<IdealSource>(seed);
      });
  ASSERT_TRUE(eventually([&] { return pool.quarantine_events() >= 1; }));
  EXPECT_EQ(pool.quarantine_events(), 1u);
  EXPECT_EQ(pool.reseed_events(), 1u);
  EXPECT_EQ(pool.retired_producers(), 0u);
  EXPECT_EQ(pool.healthy_producers(), 2u);
  EXPECT_EQ(pool.get_bytes(512).size(), 512u);
}

TEST(EntropyPool, BiasedProducerIsCaughtAndRetired) {
  // A source that still toggles but emits ones 95% of the time defeats a
  // repetition-count-only monitor; the adaptive proportion test must
  // catch it.  Biased on every build -> quarantines march to retirement.
  EntropyPool pool(
      {.producers = 2, .buffer_bytes = 2048, .block_bits = 512,
       .max_reseeds = 2},
      [](std::size_t index, std::uint64_t seed) -> std::unique_ptr<TrngSource> {
        if (index == 0) return std::make_unique<BiasedSource>(seed, 0, 0.95);
        return std::make_unique<IdealSource>(seed);
      });
  ASSERT_TRUE(eventually([&] { return pool.retired_producers() == 1; }));
  EXPECT_GE(pool.quarantine_events(), 3u);
  EXPECT_EQ(pool.healthy_producers(), 1u);
  EXPECT_EQ(pool.get_bytes(256).size(), 256u);
}

TEST(EntropyPool, StaggeredRetirementEndsInEntropyExhausted) {
  // Producer 0 is dead on arrival; producer 1 serves ~2.5 KB before its
  // noise dies at bit 20000 and every rebuild is dead too.  The pool must
  // serve the healthy prefix, then retire the last producer and throw —
  // the terminal state of the failure policy.
  std::atomic<int> builds_of_producer1{0};
  EntropyPool pool(
      {.producers = 2, .buffer_bytes = 512, .block_bits = 512,
       .max_reseeds = 1},
      [&](std::size_t index, std::uint64_t seed) -> std::unique_ptr<TrngSource> {
        if (index == 1 && builds_of_producer1.fetch_add(1) == 0) {
          return std::make_unique<StuckSource>(seed, 20000);
        }
        return std::make_unique<StuckSource>(seed, 0);
      });
  std::size_t served = 0;
  EXPECT_THROW(
      {
        for (;;) served += pool.get_bytes(64).size();
      },
      EntropyExhausted);
  EXPECT_GT(served, 0u);          // the healthy prefix was served...
  EXPECT_LE(served, 20000u / 8);  // ...and only the healthy prefix
  EXPECT_EQ(pool.healthy_producers(), 0u);
  EXPECT_EQ(pool.retired_producers(), 2u);
  EXPECT_TRUE(pool.exhausted());
  EXPECT_TRUE(pool.snapshot().exhausted);
  // Per producer: max_reseeds + 1 = 2 alarms, 1 cure-attempt reseed.
  EXPECT_EQ(pool.quarantine_events(), 4u);
  EXPECT_EQ(pool.reseed_events(), 2u);
  // Exhaustion is sticky: later requests must keep refusing.
  EXPECT_THROW(pool.get_bytes(1), EntropyExhausted);
}

TEST(EntropyPool, DhTrngConvenienceFactory) {
  EntropyPool pool({.producers = 2, .buffer_bytes = 512, .block_bits = 256},
                   source_factory("dhtrng"));
  const auto bytes = pool.get_bytes(128);
  EXPECT_EQ(bytes.size(), 128u);
  EXPECT_EQ(pool.healthy_producers(), 2u);
}

TEST(EntropyPool, CertSnapshotClampsGeometryToBlockBits) {
  // block_bits = 768 = 256 * 3: the largest power-of-two divisor is 256,
  // so the default tracker geometry (128, 1024) clamps to (128, 256).
  EntropyPool pool({.producers = 1, .buffer_bytes = 1024, .block_bits = 768},
                   ideal_factory());
  EXPECT_EQ(pool.tracker_config().block_len, 128u);
  EXPECT_EQ(pool.tracker_config().window_bits, 256u);
  const PoolCertSnapshot snap = pool.cert_snapshot();
  EXPECT_TRUE(snap.enabled);
  EXPECT_EQ(snap.tracker.window_bits, 256u);
}

TEST(EntropyPool, CertSnapshotDisabledWhenNotCertifying) {
  EntropyPool pool({.producers = 1, .buffer_bytes = 512, .block_bits = 256,
                    .certify = false},
                   ideal_factory());
  (void)pool.get_bytes(64);
  const PoolCertSnapshot snap = pool.cert_snapshot();
  EXPECT_FALSE(snap.enabled);
  EXPECT_TRUE(snap.producers.empty());
  EXPECT_EQ(snap.merged.bits, 0u);
}

// Concurrency (TSan lane): cert_snapshot() races against live producers
// feeding their trackers and a consumer draining the buffer.  The
// per-producer tracker lock means every snapshot observes block-aligned
// state, so the merge precondition holds in every interleaving.
TEST(EntropyPool, CertSnapshotUnderConcurrentProductionIsConsistent) {
  EntropyPool pool({.producers = 3, .buffer_bytes = 2048, .block_bits = 256},
                   ideal_factory());
  std::atomic<bool> done{false};
  std::thread consumer([&] {
    while (!done.load(std::memory_order_acquire)) {
      (void)pool.get_bytes(128);
    }
  });
  for (int i = 0; i < 200; ++i) {
    const PoolCertSnapshot snap = pool.cert_snapshot();
    ASSERT_EQ(snap.producers.size(), 3u);
    std::uint64_t total = 0;
    for (const auto& s : snap.producers) {
      // Whole health-gated blocks only — never a torn mid-block state.
      EXPECT_EQ(s.bits % 256u, 0u);
      total += s.bits;
    }
    // The merge inside cert_snapshot() holds each tracker's lock while
    // folding it in, so the merged view is exactly the concatenation of
    // the per-producer snapshots taken in the same pass.
    EXPECT_EQ(snap.merged.bits, total);
    EXPECT_EQ(snap.merged.windows, total / 256u);
  }
  done.store(true, std::memory_order_release);
  consumer.join();
}

}  // namespace
}  // namespace dhtrng::core
