#include "common.h"

#include <cmath>
#include <cstdlib>
#include <fstream>

namespace perfbench {

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss over from
  // the process image that exec'd this one (the launching interpreter).
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

namespace {

/// Nearest-rank percentile of an ascending-sorted sample, and how many
/// samples lie strictly above that rank.
struct Percentile {
  double value = 0.0;
  std::size_t beyond = 0;
};

Percentile percentile(const std::vector<double>& sorted, double q) {
  Percentile p;
  if (sorted.empty()) return p;
  const double n = static_cast<double>(sorted.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  p.value = sorted[rank - 1];
  p.beyond = sorted.size() - rank;
  return p;
}

}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double trimmed_mean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t drop = values.size() / 5;
  double sum = 0.0;
  for (std::size_t i = drop; i < values.size() - drop; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * drop);
}

std::string join(const std::vector<double>& values) {
  std::string out;
  char buf[32];
  for (double v : values) {
    std::snprintf(buf, sizeof(buf), "%s%.4g", out.empty() ? "" : " ", v);
    out += buf;
  }
  return out;
}

void RoundSeries::add_round(double round_mbit_s,
                            const Reservoir& latencies_us) {
  std::vector<double> sorted = latencies_us.values();
  std::sort(sorted.begin(), sorted.end());
  const Percentile p50 = percentile(sorted, 0.50);
  const Percentile p99 = percentile(sorted, 0.99);
  const bool first = mbit_s.empty();
  mbit_s.push_back(round_mbit_s);
  p50_us.push_back(p50.value);
  p99_us.push_back(p99.value);
  min_samples = first ? latencies_us.seen()
                      : std::min(min_samples, latencies_us.seen());
  min_beyond = first ? p99.beyond : std::min(min_beyond, p99.beyond);
}

std::string RoundSeries::describe(const char* latency_name) const {
  char head[256];
  std::snprintf(head, sizeof(head),
                "%.4f Mbit/s, %s p50 %.1f us, p99 %.1f us (trimmed means of "
                "%zu rounds; >= %llu samples and >= %zu beyond p99 per "
                "round%s)",
                mbit_s_value(), latency_name, p50_us_value(), p99_us_value(),
                mbit_s.size(), static_cast<unsigned long long>(min_samples),
                min_beyond, min_beyond < 10 ? ", too few: p99 unresolved" : "");
  return std::string(head) + "; rounds Mbit/s [" + join(mbit_s) + "] p50 [" +
         join(p50_us) + "] p99 [" + join(p99_us) + "]";
}

std::uint64_t derive_seed(std::uint64_t seed, unsigned k) {
  dhtrng::support::SplitMix64 sm(seed);
  std::uint64_t value = 0;
  for (unsigned i = 0; i <= k; ++i) value = sm.next();
  return value;
}

ProducerTotals ProducerTotals::sample(
    const std::vector<std::unique_ptr<ProducerLedger>>& ledgers) {
  ProducerTotals t;
  for (const auto& l : ledgers) {
    t.source_cpu_ns += l->source_cpu_ns.load(std::memory_order_relaxed);
    t.other_cpu_ns += l->other_cpu_ns.load(std::memory_order_relaxed);
    t.wall_ns += l->wall_ns.load(std::memory_order_relaxed);
    t.bits += l->bits.load(std::memory_order_relaxed);
  }
  return t;
}

void BatchTimer::begin() {
  if (!timed_) return;
  cpu0_ = thread_cpu_ns();
  wall0_ = now_ns();
  if (last_wall_ != 0) {
    ledger_.other_cpu_ns.fetch_add(cpu0_ - last_cpu_,
                                   std::memory_order_relaxed);
    ledger_.wall_ns.fetch_add(wall0_ - last_wall_, std::memory_order_relaxed);
  }
}

void BatchTimer::end(std::uint64_t bits) {
  ledger_.bits.fetch_add(bits, std::memory_order_relaxed);
  if (!timed_) return;
  last_cpu_ = thread_cpu_ns();
  last_wall_ = now_ns();
  ledger_.source_cpu_ns.fetch_add(last_cpu_ - cpu0_,
                                  std::memory_order_relaxed);
  ledger_.wall_ns.fetch_add(last_wall_ - wall0_, std::memory_order_relaxed);
  ledger_.spans.push_back({wall0_, last_wall_, last_cpu_ - cpu0_, bits});
}

}  // namespace perfbench
