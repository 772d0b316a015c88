// Entropy-service loopback throughput: an in-process EntropyServer over a
// pool of fast PRNG-backed producers (so the wire/protocol/worker path is
// the bottleneck, not the simulated noise source), hammered by K client
// threads over TCP loopback, one quality at a time.
//
//   bench_service_throughput [--clients=K] [--seconds-bytes=N]
//                            [--request-bytes=R] [--workers=W] [--quick]
//
// Reports MB/s and Mbit/s per quality.  --quick shrinks the transfer for
// CI smoke runs.
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/trng.h"
#include "service/client.h"
#include "service/entropy_server.h"
#include "support/rng.h"

namespace {

using namespace dhtrng;

/// PRNG-backed TrngSource: buffers 64 bits per xoshiro draw so next_bit is
/// a shift, keeping the pool producers far faster than the socket path.
class FastSource final : public core::TrngSource {
 public:
  explicit FastSource(std::uint64_t seed) : rng_(seed) {}
  std::string name() const override { return "xoshiro-bench"; }
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
  void restart() override {}
  sim::ResourceCounts resources() const override { return {}; }
  double clock_mhz() const override { return 0.0; }
  fpga::ActivityEstimate activity() const override { return {}; }

 private:
  support::Xoshiro256 rng_;
  std::uint64_t word_ = 0;
  int left_ = 0;
};

struct RunResult {
  double seconds = 0.0;
  std::uint64_t bytes = 0;
};

RunResult run_quality(service::EntropyServer& server, service::Quality q,
                      std::size_t clients, std::uint64_t bytes_per_client,
                      std::uint32_t request_bytes) {
  std::vector<std::thread> threads;
  threads.reserve(clients);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&server, q, bytes_per_client, request_bytes] {
      auto client = service::EntropyClient::connect_tcp(
          "127.0.0.1", server.tcp_port());
      std::uint64_t got = 0;
      while (got < bytes_per_client) {
        const auto result = client.fetch(request_bytes, q);
        if (!result.ok()) break;  // pool stopped / server shutting down
        got += result.bytes.size();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const auto stop = std::chrono::steady_clock::now();
  RunResult r;
  r.seconds = std::chrono::duration<double>(stop - start).count();
  r.bytes = bytes_per_client * clients;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const auto clients = static_cast<std::size_t>(
      bench::flag(argc, argv, "clients", 4));
  const auto request_bytes = static_cast<std::uint32_t>(
      bench::flag(argc, argv, "request-bytes", 4096));
  const auto workers = static_cast<std::size_t>(
      bench::flag(argc, argv, "workers", 4));
  const bool quick = bench::flag_set(argc, argv, "quick");
  const auto bytes_per_client = static_cast<std::uint64_t>(bench::flag(
      argc, argv, "bytes-per-client", quick ? (1 << 20) : (16 << 20)));

  bench::header("Entropy service loopback throughput",
                "service layer (not from the paper): protocol + worker path");
  std::printf(
      "config: %zu clients x %llu MiB, %u-byte requests, %zu workers\n\n",
      clients,
      static_cast<unsigned long long>(bytes_per_client >> 20),
      request_bytes, workers);

  service::EntropyServerConfig cfg;
  cfg.shards = workers;
  cfg.pool.producers = 4;
  cfg.pool.buffer_bytes = 1 << 20;
  cfg.pool.block_bits = 1 << 15;
  cfg.max_request_bytes = request_bytes;
  service::EntropyServer server(
      cfg, [](std::size_t, std::uint64_t seed) {
        return std::make_unique<FastSource>(seed);
      });

  std::printf("%-12s %10s %10s %10s\n", "quality", "seconds", "MB/s",
              "Mbit/s");
  for (const service::Quality q :
       {service::Quality::Raw, service::Quality::Conditioned,
        service::Quality::Drbg}) {
    const RunResult r =
        run_quality(server, q, clients, bytes_per_client, request_bytes);
    const double mbps = static_cast<double>(r.bytes) / 1e6 / r.seconds;
    std::printf("%-12s %10.2f %10.1f %10.1f\n", service::quality_name(q),
                r.seconds, mbps, mbps * 8.0);
  }
  return 0;
}
