// Shared pieces of the perfbench workloads: clocks, order statistics, the
// metric sink, the benchmark's own zero-cost entropy source, and the
// TimedSource decorator that attributes producer-thread time to the
// wrapped source versus everything the pool does around it.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

#include "core/trng.h"
#include "support/rng.h"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU time consumed by the calling thread.
inline std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000u +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Peak resident set of this process so far, in MB (2^20 bytes).
double peak_rss_mb();

double median(std::vector<double> values);

/// Mean of the middle values after dropping the lowest and highest fifth:
/// robust to one slow round, and smooth where rounds fall into two modes
/// (a median would jump between them).
double trimmed_mean(std::vector<double> values);

/// "a b c" with 4 significant digits, for log lines.
std::string join(const std::vector<double>& values);

/// Uniform random sample of at most kCapacity values (Algorithm R), so a
/// round's memory stays flat however many requests it completes.
class Reservoir {
 public:
  static constexpr std::size_t kCapacity = std::size_t{1} << 16;

  explicit Reservoir(std::uint64_t seed) : rng_(seed) {
    values_.reserve(kCapacity);
  }
  void add(double v) {
    ++seen_;
    if (values_.size() < kCapacity) {
      values_.push_back(v);
    } else if (const std::uint64_t j = rng_() % seen_; j < kCapacity) {
      values_[j] = v;
    }
  }
  std::uint64_t seen() const { return seen_; }
  const std::vector<double>& values() const { return values_; }

 private:
  dhtrng::support::Xoshiro256 rng_;
  std::vector<double> values_;
  std::uint64_t seen_ = 0;
};

/// Throughput and latency percentiles of each round of a pass.  Reported
/// values are trimmed means over rounds, so one round that met a slow
/// spell of the host cannot set the result.
struct RoundSeries {
  std::vector<double> mbit_s;
  std::vector<double> p50_us;
  std::vector<double> p99_us;
  std::uint64_t min_samples = 0;  ///< fewest latency samples in one round
  std::size_t min_beyond = 0;     ///< fewest samples beyond p99 in one round

  void add_round(double round_mbit_s, const Reservoir& latencies_us);
  double mbit_s_value() const { return trimmed_mean(mbit_s); }
  double p50_us_value() const { return trimmed_mean(p50_us); }
  double p99_us_value() const { return trimmed_mean(p99_us); }
  /// One log line: per-round values and the sample counts behind p99.
  std::string describe(const char* latency_name) const;
};

/// How much worse `traced` is than `base`, as a share of `base` (positive
/// = worse, whichever direction the metric improves in).
inline double worse_frac(double base, double traced, bool higher_is_better) {
  if (base == 0.0) return 0.0;
  return higher_is_better ? (base - traced) / base : (traced - base) / base;
}

/// Derived seed `k` of the workload seed (SplitMix64 stream position k).
std::uint64_t derive_seed(std::uint64_t seed, unsigned k);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one invocation reports: the output-check verdict, the
/// request accounting and the named metrics for the final JSON line.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Record a failed output check with a reason on stdout.
  void fail_check(const std::string& what) {
    correct = false;
    std::printf("check FAILED: %s\n", what.c_str());
  }
};

/// Zero-cost source: xoshiro256** words handed out bit by bit, so the
/// pool and service layers above it do nearly all of the work.
class XoshiroSource final : public dhtrng::core::TrngSource {
 public:
  explicit XoshiroSource(std::uint64_t seed) : rng_(seed) {}
  std::string name() const override { return "perfbench-xoshiro"; }
  bool next_bit() override {
    if (left_ == 0) {
      word_ = rng_();
      left_ = 64;
    }
    const bool bit = (word_ & 1u) != 0;
    word_ >>= 1;
    --left_;
    return bit;
  }
  /// Word path for TimedSource: 64 fresh bits per word, in next_bit()
  /// order (do not mix the two paths on one object).
  void generate_words(std::uint64_t* out, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) out[i] = rng_();
  }
  void restart() override {}
  dhtrng::sim::ResourceCounts resources() const override { return {}; }
  double clock_mhz() const override { return 0.0; }
  dhtrng::fpga::ActivityEstimate activity() const override { return {}; }

 private:
  dhtrng::support::Xoshiro256 rng_;
  std::uint64_t word_ = 0;
  int left_ = 0;
};

/// One timed call into a source (or, for gate_sim, into generate()).
struct SourceSpan {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t cpu_ns = 0;
  std::uint64_t bits = 0;
};

/// Time ledger of one producer slot.  Outlives the sources the pool
/// builds for that slot (reseeds replace the source, not the ledger).
/// Totals are written by the producer thread and sampled by the benchmark
/// thread at window boundaries; spans are read only after the producer
/// joined.
struct ProducerLedger {
  std::atomic<std::uint64_t> source_cpu_ns{0};  ///< CPU inside the source
  std::atomic<std::uint64_t> other_cpu_ns{0};   ///< CPU between source calls
  std::atomic<std::uint64_t> wall_ns{0};        ///< wall time covered
  std::atomic<std::uint64_t> bits{0};
  std::vector<SourceSpan> spans;
};

struct ProducerTotals {
  std::uint64_t source_cpu_ns = 0;
  std::uint64_t other_cpu_ns = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t bits = 0;

  static ProducerTotals sample(
      const std::vector<std::unique_ptr<ProducerLedger>>& ledgers);
  ProducerTotals operator-(const ProducerTotals& rhs) const {
    return {source_cpu_ns - rhs.source_cpu_ns, other_cpu_ns - rhs.other_cpu_ns,
            wall_ns - rhs.wall_ns, bits - rhs.bits};
  }
};

/// Brackets the inner calls of one producer slot with the producer
/// thread's CPU clock and the wall clock: CPU inside a call is source
/// time, CPU between calls is the pool's own work (bit packing, RCT/APT,
/// tracker, ring-buffer push) and the rest of the wall time is time the
/// thread spent off CPU (blocked on a full buffer or preempted).
class BatchTimer {
 public:
  BatchTimer(ProducerLedger& ledger, bool timed)
      : ledger_(ledger), timed_(timed) {}
  void begin();
  void end(std::uint64_t bits);

 private:
  ProducerLedger& ledger_;
  bool timed_;
  std::uint64_t cpu0_ = 0;
  std::uint64_t wall0_ = 0;
  std::uint64_t last_cpu_ = 0;   ///< thread CPU at the end of the last call
  std::uint64_t last_wall_ = 0;  ///< wall clock at the end of the last call
};

/// TrngSource decorator over a word generator (`Inner::generate_words`,
/// bit b of word w being stream bit 64w+b — the order of the inner
/// source's own next_bit()).  Pulls kBatchWords words per call and serves
/// next_bit() from them, so the pool sees the inner source's stream while
/// the BatchTimer attributes the producer thread's time.
template <class Inner>
class TimedSource final : public dhtrng::core::TrngSource {
 public:
  static constexpr std::size_t kBatchWords = 64;  ///< one 4096-bit pool block

  template <class... Args>
  TimedSource(ProducerLedger& ledger, bool timed, Args&&... args)
      : inner_(std::forward<Args>(args)...), timer_(ledger, timed) {}

  std::string name() const override { return "timed(" + inner_.name() + ")"; }
  bool next_bit() override {
    if (pos_ == kBatchWords * 64) {
      timer_.begin();
      inner_.generate_words(words_, kBatchWords);
      timer_.end(kBatchWords * 64);
      pos_ = 0;
    }
    const bool bit = ((words_[pos_ >> 6] >> (pos_ & 63)) & 1u) != 0;
    ++pos_;
    return bit;
  }
  void restart() override { inner_.restart(); }
  dhtrng::sim::ResourceCounts resources() const override {
    return inner_.resources();
  }
  double clock_mhz() const override { return inner_.clock_mhz(); }
  dhtrng::fpga::ActivityEstimate activity() const override {
    return inner_.activity();
  }

 private:
  Inner inner_;
  BatchTimer timer_;
  std::uint64_t words_[kBatchWords] = {};
  std::size_t pos_ = kBatchWords * 64;
};

}  // namespace perfbench
