#include "core/entropy_pool.h"

#include <algorithm>
#include <utility>

#include "support/rng.h"
#include "support/wordops.h"

namespace dhtrng::core {

namespace {

const EntropyPoolConfig& validated(const EntropyPoolConfig& config) {
  if (config.producers == 0) {
    throw std::invalid_argument("EntropyPool: producers == 0");
  }
  if (config.block_bits == 0 || config.block_bits % 64 != 0) {
    throw std::invalid_argument("EntropyPool: block_bits must be a positive "
                                "multiple of 64");
  }
  return config;
}

/// buffer_bytes rounded up to a whole number of blocks, at least one:
/// producers publish whole blocks, so a smaller buffer would never admit
/// one.
std::size_t ring_capacity(const EntropyPoolConfig& config) {
  const std::size_t block_bytes = config.block_bits / 8;
  const std::size_t blocks = std::max<std::size_t>(
      1, (config.buffer_bytes + block_bytes - 1) / block_bytes);
  return blocks * block_bytes;
}

}  // namespace

EntropyPool::EntropyPool(EntropyPoolConfig config, SourceFactory factory)
    : config_(validated(config)),
      factory_(std::move(factory)),
      buffer_(ring_capacity(config_)) {
  // Clamp the tracker geometry to the largest power of two dividing
  // block_bits (>= 64 since block_bits is a multiple of 64): producers feed
  // whole blocks, so this keeps every tracker permanently block- and
  // window-aligned and the pool-wide merge exact.
  tracker_config_ = config_.tracker;
  const std::size_t pow2_divisor =
      config_.block_bits & (~config_.block_bits + 1);
  tracker_config_.block_len =
      std::min(tracker_config_.block_len, pow2_divisor);
  tracker_config_.window_bits =
      std::min(tracker_config_.window_bits, pow2_divisor);
  states_.reserve(config_.producers);
  for (std::size_t i = 0; i < config_.producers; ++i) {
    auto state = std::make_unique<ProducerState>(config_.min_entropy_per_bit,
                                                 tracker_config_);
    state->source = factory_(i, derived_seed(i, 0));
    states_.push_back(std::move(state));
  }
  // Start threads only once every state slot exists (producers index into
  // states_ concurrently).
  for (std::size_t i = 0; i < config_.producers; ++i) {
    states_[i]->thread = std::thread([this, i] { producer_loop(i); });
  }
}

EntropyPool::~EntropyPool() { stop(); }

std::uint64_t EntropyPool::derived_seed(std::size_t index,
                                        std::uint64_t sequence) const {
  // One SplitMix64 stream per pool; producer `index` owns the stream
  // positions index, producers+index, 2*producers+index, ... so initial and
  // reseed seeds never collide across producers.
  support::SplitMix64 sm(config_.seed);
  std::uint64_t value = 0;
  const std::uint64_t steps = sequence * config_.producers + index + 1;
  for (std::uint64_t i = 0; i < steps; ++i) value = sm.next();
  return value;
}

void EntropyPool::producer_loop(std::size_t index) {
  ProducerState& st = *states_[index];
  std::vector<std::uint64_t> words(config_.block_bits / 64);
  std::vector<std::uint8_t> block(config_.block_bits / 8);

  while (!stopping_.load(std::memory_order_acquire)) {
    // Generate and health-test one block.  The monitor is sticky once
    // alarmed, so `healthy` reflects the whole block; word-wise feeding
    // alarms at exactly the sample per-bit feeding would.
    st.source->generate_words(words.data(), words.size());
    bool healthy = true;
    for (std::uint64_t w : words) {
      healthy = st.monitor.feed_word(w, 64) && healthy;
    }

    if (!healthy) {
      quarantines_.fetch_add(1, std::memory_order_relaxed);
      if (++st.consecutive_alarms > config_.max_reseeds) {
        // Reseeding did not cure it: the physical source is gone.  Retire;
        // the last producer standing closes the buffer so consumers can
        // observe exhaustion instead of blocking forever.
        st.retired.store(true, std::memory_order_release);
        if (retired_count_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            states_.size()) {
          buffer_.close();
        }
        return;
      }
      st.source = factory_(index, derived_seed(index, ++st.reseed_sequence));
      st.monitor.reset();
      reseeds_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }

    st.consecutive_alarms = 0;
    if (config_.certify) {
      // The block passed the health gate, so it is part of the served
      // stream — exactly what the online certification tracks.  Whole
      // blocks only, under the lock, so cert_snapshot() always observes
      // block-aligned tracker state.
      std::lock_guard<std::mutex> lock(st.tracker_mutex);
      for (std::uint64_t w : words) st.tracker.feed_word(w, 64);
    }
    // Serve the stream MSB-first: byte 8w + j of the block holds bits
    // 64w + 8j .. 64w + 8j + 7, the first of them in the top bit.
    for (std::size_t w = 0; w < words.size(); ++w) {
      const std::uint64_t v = support::wordops::reverse_bits_in_bytes(words[w]);
      for (std::size_t j = 0; j < 8; ++j) {
        block[8 * w + j] = static_cast<std::uint8_t>(v >> (8 * j));
      }
    }
    if (!buffer_.push_n(block.data(), block.size())) {
      return;  // pool stopped while we were blocked
    }
    bytes_produced_.fetch_add(block.size(), std::memory_order_relaxed);
  }
}

std::vector<std::uint8_t> EntropyPool::get_bytes(std::size_t n) {
  std::vector<std::uint8_t> out(n);
  std::size_t filled = 0;
  while (filled < n) {
    const std::size_t got = buffer_.pop_n(out.data() + filled, n - filled);
    if (got == 0) throw EntropyExhausted();  // closed and drained
    filled += got;
  }
  return out;
}

void EntropyPool::stop() {
  stopping_.store(true, std::memory_order_release);
  buffer_.close();
  for (auto& st : states_) {
    if (st->thread.joinable()) st->thread.join();
  }
}

std::size_t EntropyPool::healthy_producers() const {
  std::size_t healthy = 0;
  for (const auto& st : states_) {
    if (!st->retired.load(std::memory_order_acquire)) ++healthy;
  }
  return healthy;
}

std::size_t EntropyPool::retired_producers() const {
  return retired_count_.load(std::memory_order_acquire);
}

bool EntropyPool::exhausted() const {
  return retired_producers() == states_.size();
}

std::uint64_t EntropyPool::quarantine_events() const {
  return quarantines_.load(std::memory_order_relaxed);
}

std::uint64_t EntropyPool::reseed_events() const {
  return reseeds_.load(std::memory_order_relaxed);
}

std::uint64_t EntropyPool::bytes_produced() const {
  return bytes_produced_.load(std::memory_order_relaxed);
}

PoolCertSnapshot EntropyPool::cert_snapshot() const {
  PoolCertSnapshot snap;
  snap.enabled = config_.certify;
  snap.tracker = tracker_config_;
  if (!config_.certify) return snap;
  stats::streaming::SourceTracker merged(tracker_config_);
  snap.producers.reserve(states_.size());
  for (const auto& st : states_) {
    std::lock_guard<std::mutex> lock(st->tracker_mutex);
    snap.producers.push_back(st->tracker.snapshot());
    // Exact merge: every tracker holds whole blocks, and the clamped
    // geometry divides block_bits, so the alignment precondition always
    // holds.
    merged.merge(st->tracker);
  }
  snap.merged = merged.snapshot();
  return snap;
}

PoolHealthSnapshot EntropyPool::snapshot() const {
  PoolHealthSnapshot snap;
  snap.producers = states_.size();
  snap.retired = retired_producers();
  snap.healthy = snap.producers - snap.retired;
  snap.quarantines = quarantine_events();
  snap.reseeds = reseed_events();
  snap.bytes_produced = bytes_produced();
  snap.exhausted = snap.retired == snap.producers;
  return snap;
}

}  // namespace dhtrng::core
