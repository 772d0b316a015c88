// Health-gated parallel entropy service: N producer threads each drive an
// independent TrngSource, run the SP 800-90B continuous health tests
// (stats/health.h RCT + APT) over every bit they emit, and feed a bounded
// shared buffer that consumers drain via get_bytes().
//
// The path is block-granular end to end: a producer draws a block of
// 64-bit words from its source (TrngSource::generate_words), feeds the
// health tests and its tracker one word at a time, and publishes the
// block into the buffer as one contiguous span; get_bytes() copies spans
// out.  Served bytes pack the source stream MSB-first (stream bit 8k is
// the top bit of byte k), as the BitStream::from_bytes convention reads
// them back.
//
// Failure policy (the deployment behaviour SP 800-90B section 4.3 asks an
// entropy source to document):
//  * a block during which a producer's health monitor alarms is discarded
//    in full — no bit of it reaches the buffer;
//  * the alarming producer is quarantined: its source is rebuilt through
//    the factory with a fresh derived seed and its monitors reset;
//  * a producer that alarms on `max_reseeds` consecutive blocks is retired
//    permanently (a genuinely stuck source keeps failing after reseeding);
//  * get_bytes() keeps serving from the remaining healthy producers and
//    only throws EntropyExhausted once every producer has been retired and
//    the buffer has drained.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/trng.h"
#include "stats/health.h"
#include "stats/streaming.h"
#include "support/ring_buffer.h"

namespace dhtrng::core {

struct EntropyPoolConfig {
  std::size_t producers = 4;
  /// Bounded buffer capacity; full buffer backpressures the producers.
  /// Rounded up to a whole number of blocks (at least one), so every
  /// block fits the buffer and is published as one contiguous span.
  std::size_t buffer_bytes = 1 << 16;
  /// Production granularity: bits generated, health-tested and published
  /// per block.  Must be a positive multiple of 64 (sources hand over
  /// whole 64-bit words).
  std::size_t block_bits = 4096;
  /// H-claim for the RCT/APT cutoffs (per-bit min-entropy).
  double min_entropy_per_bit = 0.9;
  /// Consecutive alarmed blocks before a producer is retired for good.
  std::size_t max_reseeds = 3;
  /// Master seed; per-producer seeds are SplitMix64-derived from it.
  std::uint64_t seed = 1;
  /// Run a stats::streaming::SourceTracker per producer over every block
  /// that passes the health gate (i.e. the exact served stream), powering
  /// cert_snapshot() and the service CERT verb.
  bool certify = true;
  /// Tracker geometry.  block_len/window_bits are clamped down to the
  /// largest power of two dividing block_bits, so per-block feeding keeps
  /// every tracker block/window-aligned and the merged pool view exact.
  stats::streaming::TrackerConfig tracker;
};

/// Thrown by get_bytes() when every producer has been retired.
struct EntropyExhausted : std::runtime_error {
  EntropyExhausted() : std::runtime_error(
      "EntropyPool: all producers unhealthy, refusing to emit bytes") {}
};

/// One coherent view of the pool's failure-policy counters, for consumers
/// that gate their own behaviour on pool health (service::EntropyServer's
/// degradation ladder, the STATS admin command).  Counters are sampled
/// individually from atomics — the snapshot is eventually consistent, not
/// a transaction.
struct PoolHealthSnapshot {
  std::size_t producers = 0;        ///< configured producer count
  std::size_t healthy = 0;          ///< producers not permanently retired
  std::size_t retired = 0;          ///< producers retired for good
  std::uint64_t quarantines = 0;    ///< health alarms (block discarded)
  std::uint64_t reseeds = 0;        ///< quarantines cured by a rebuild
  std::uint64_t bytes_produced = 0; ///< bytes that passed the health gate
  bool exhausted = false;           ///< every producer retired
};

/// Live streaming-certification view: one tracker snapshot per producer
/// (over exactly the health-gated bits that producer contributed) plus
/// the pool-wide merge.  Producers feed their trackers whole blocks under
/// a per-producer lock, so every snapshot observes block-aligned state
/// and the merge is exact (see stats/streaming.h).
struct PoolCertSnapshot {
  bool enabled = false;                       ///< config.certify
  stats::streaming::TrackerConfig tracker;    ///< effective (clamped) config
  std::vector<stats::streaming::Snapshot> producers;
  stats::streaming::Snapshot merged;
};

class EntropyPool {
 public:
  /// Builds the TrngSource for producer `index`; called again with a fresh
  /// derived seed each time that producer is reseeded out of quarantine.
  /// core::source_factory (core/sources.h) makes one for any registered
  /// architecture.
  using SourceFactory = std::function<std::unique_ptr<TrngSource>(
      std::size_t index, std::uint64_t seed)>;

  EntropyPool(EntropyPoolConfig config, SourceFactory factory);

  ~EntropyPool();

  EntropyPool(const EntropyPool&) = delete;
  EntropyPool& operator=(const EntropyPool&) = delete;
  EntropyPool(EntropyPool&&) = delete;

  /// Blocks until `n` health-tested bytes are available (FIFO across
  /// producers; a lone consumer sees whole blocks back to back).  Throws
  /// EntropyExhausted once all producers are retired and the buffered
  /// remainder cannot cover the request.
  std::vector<std::uint8_t> get_bytes(std::size_t n);

  /// Stop producers and wake blocked consumers; idempotent (the destructor
  /// calls it).  After stop(), get_bytes() drains the buffer then throws.
  void stop();

  std::size_t producers() const { return states_.size(); }
  /// Producers not permanently retired.
  std::size_t healthy_producers() const;
  /// Producers permanently retired.
  std::size_t retired_producers() const;
  /// True once every producer has been retired (get_bytes() will throw as
  /// soon as the buffered remainder drains).
  bool exhausted() const;
  /// Total health alarms observed (each triggers a quarantine + reseed,
  /// or the retirement once `max_reseeds` is exceeded).
  std::uint64_t quarantine_events() const;
  /// Quarantines that ended in a rebuild (quarantines minus retirements).
  std::uint64_t reseed_events() const;
  /// Bytes that passed the health gate into the buffer.
  std::uint64_t bytes_produced() const;
  /// All of the above in one struct (see PoolHealthSnapshot).
  PoolHealthSnapshot snapshot() const;
  /// Per-producer + merged streaming-certification snapshots (empty with
  /// certify = false).
  PoolCertSnapshot cert_snapshot() const;
  /// The tracker geometry actually in use (after block_bits clamping).
  const stats::streaming::TrackerConfig& tracker_config() const {
    return tracker_config_;
  }
  /// Buffer capacity in bytes (buffer_bytes rounded up to whole blocks).
  std::size_t buffer_capacity() const { return buffer_.capacity(); }

 private:
  struct ProducerState {
    std::unique_ptr<TrngSource> source;
    stats::HealthMonitor monitor;
    /// Streaming certification over this producer's health-gated output;
    /// fed whole blocks under tracker_mutex after the health decision, so
    /// snapshots always observe block-aligned state.
    stats::streaming::SourceTracker tracker;
    mutable std::mutex tracker_mutex;
    std::uint64_t reseed_sequence = 0;  ///< seeds consumed by this producer
    std::size_t consecutive_alarms = 0;
    std::atomic<bool> retired{false};
    std::thread thread;

    ProducerState(double h_claim, stats::streaming::TrackerConfig tracker_cfg)
        : monitor(h_claim), tracker(tracker_cfg) {}
  };

  void producer_loop(std::size_t index);
  std::uint64_t derived_seed(std::size_t index, std::uint64_t sequence) const;

  EntropyPoolConfig config_;
  stats::streaming::TrackerConfig tracker_config_;  ///< clamped to block_bits
  SourceFactory factory_;
  support::RingBuffer<std::uint8_t> buffer_;
  std::vector<std::unique_ptr<ProducerState>> states_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::size_t> retired_count_{0};
  std::atomic<std::uint64_t> quarantines_{0};
  std::atomic<std::uint64_t> reseeds_{0};
  std::atomic<std::uint64_t> bytes_produced_{0};
};

}  // namespace dhtrng::core
