// Parallel entropy service scaling: DhTrngArray::generate_parallel over a
// range of worker-thread counts (with a bit-identity check against the
// serial path on every run), and EntropyPool end-to-end service throughput
// as the producer count grows.
//
// The simulation cores are embarrassingly parallel — each DhTrng core owns
// its state — so on an N-way machine the parallel path approaches N x the
// serial throughput (minus the final interleave merge, which is serial).
// On a single-core container every row collapses to ~1x; the bit-identity
// column is still meaningful there.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/dhtrng_array.h"
#include "core/entropy_pool.h"
#include "core/sources.h"
#include "support/thread_pool.h"

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dhtrng;
  const auto cores =
      static_cast<std::size_t>(bench::flag(argc, argv, "cores", 8));
  const auto bits =
      static_cast<std::size_t>(bench::flag(argc, argv, "bits", 2000000));
  const auto max_threads = static_cast<std::size_t>(bench::flag(
      argc, argv, "max-threads",
      static_cast<long long>(support::ThreadPool::hardware_threads())));
  const auto pool_bytes =
      static_cast<std::size_t>(bench::flag(argc, argv, "pool-bytes", 16384));

  bench::header("Parallel generation throughput",
                "concurrency layer scaling (not a paper table)");
  std::printf("hardware threads: %zu; array: %zu cores; %zu bits per run\n",
              support::ThreadPool::hardware_threads(), cores, bits);

  // Serial reference (also the correctness oracle for every parallel run).
  core::DhTrngArray reference({.core = {.seed = 42}, .cores = cores});
  auto t0 = std::chrono::steady_clock::now();
  const auto serial_bits = reference.generate(bits);
  const double serial_s = seconds_since(t0);
  const double serial_mbps =
      static_cast<double>(bits) / serial_s / 1e6;
  std::printf("\n%-18s %10s %10s %9s %s\n", "path", "time [s]", "Mbit/s",
              "speedup", "bit-identical");
  std::printf("%-18s %10.3f %10.2f %9s %s\n", "serial", serial_s, serial_mbps,
              "1.00x", "-");

  for (std::size_t threads = 1; threads <= max_threads; threads *= 2) {
    core::DhTrngArray array({.core = {.seed = 42}, .cores = cores});
    t0 = std::chrono::steady_clock::now();
    const auto parallel_bits = array.generate_parallel(bits, threads);
    const double s = seconds_since(t0);
    char label[32];
    std::snprintf(label, sizeof label, "parallel t=%zu", threads);
    std::printf("%-18s %10.3f %10.2f %8.2fx %s\n", label, s,
                static_cast<double>(bits) / s / 1e6, serial_s / s,
                parallel_bits == serial_bits ? "yes" : "NO (BUG)");
  }

  std::printf("\nEntropyPool service throughput (%zu bytes per request):\n",
              pool_bytes);
  std::printf("%-18s %10s %10s\n", "producers", "time [s]", "Mbit/s");
  for (std::size_t producers : {std::size_t{1}, std::size_t{2},
                                std::size_t{4}}) {
    core::EntropyPool pool(
        {.producers = producers, .buffer_bytes = 1u << 15, .block_bits = 4096},
        core::source_factory("dhtrng"));
    (void)pool.get_bytes(1024);  // warm-up: producers running, buffer primed
    t0 = std::chrono::steady_clock::now();
    (void)pool.get_bytes(pool_bytes);
    const double s = seconds_since(t0);
    std::printf("%-18zu %10.3f %10.2f\n", producers, s,
                static_cast<double>(pool_bytes) * 8.0 / s / 1e6);
  }
  return 0;
}
