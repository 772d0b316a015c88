// Entropy-as-a-service daemon: the deliverable end of the DH-TRNG stack.
// Serves health-gated pool bytes (RAW), SHA-256 2:1 conditioned bytes
// (CONDITIONED), and SP 800-90A HMAC_DRBG output (DRBG) over the
// length-prefixed protocol in service/protocol.h, on TCP loopback and/or
// Unix-domain listeners.
//
// Since PR 8 the I/O core is a sharded readiness loop instead of a
// thread-per-connection pool: `shards` event-loop threads, each with its
// own Poller (epoll on Linux, poll elsewhere — see service/poller.h), its
// own SO_REUSEPORT TCP listener (the kernel load-balances accepts across
// shards), and its own set of non-blocking connections.  The Unix-domain
// listener lives on shard 0, which hands accepted fds to the other shards
// round-robin through a wake-pipe doorbell.  Each connection is a small
// state machine: a FrameAssembler tolerates any read fragmentation
// (byte-at-a-time through fully coalesced), responses are queued and
// flushed with batched writev (sendmsg, up to 16 frames per call), and
// every write queue is byte-bounded — a peer that stops reading gets a
// structured Status::Busy and a close, never unbounded buffering.
// Requests on one connection are still answered strictly in order, so
// response frames can never interleave.
//
// SUBSCRIBE (protocol.h) turns a connection into a push stream serviced
// by its shard's loop: pushes draw through the same token buckets and
// degradation ladder as GET, a push that a bucket or the write queue
// cannot take whole is deferred (never split, so byte accounting stays
// exact), and push cadence is timed by the injectable clock so tests can
// freeze it.
//
// Failure policy (the SP 800-90B section 4.3 deployment behaviour, wired
// to core::EntropyPool's quarantine/reseed/retire state machine):
//
//   HEALTHY    fewer than `degraded_after_retired` producers retired —
//              every quality is served from live pool output.
//   DEGRADED   at least `degraded_after_retired` producers retired but
//              survivors remain — all qualities transparently fall back
//              to the HMAC_DRBG (reseeded from the surviving producers on
//              every pool quarantine event) and every response is flagged
//              kFlagDegraded so the client can apply its own policy.
//   EXHAUSTED  every producer retired — the service fails closed: GET
//              returns a structured Status::Exhausted error and a live
//              subscription ends with one kFlagPush-flagged Exhausted
//              frame (even though the fallback DRBG could keep stretching
//              its last seed, and even if health-gated bytes remain
//              buffered) instead of hanging or serving entropy with no
//              live noise source behind it.
//
// Backpressure: per-request byte cap (`max_request_bytes`), a global and
// a per-connection token bucket (Status::RateLimited, all-or-nothing so
// byte accounting stays exact), a connection-slot cap (Status::Busy sent
// on the freshly accepted socket, which is then closed), and the bounded
// per-connection write queue (`max_write_queue_bytes`).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/drbg.h"
#include "core/entropy_pool.h"
#include "service/frame_assembler.h"
#include "service/metrics.h"
#include "service/poller.h"
#include "service/protocol.h"
#include "service/rate_limiter.h"
#include "service/socket.h"

namespace dhtrng::service {

struct EntropyServerConfig {
  /// TCP listener on 127.0.0.1 (0 = kernel-assigned ephemeral port, see
  /// tcp_port()); set `enable_tcp` false to disable.
  bool enable_tcp = true;
  std::uint16_t tcp_port = 0;
  /// Unix-domain listener path; empty = disabled.
  std::string unix_path;

  /// Event-loop shards (readiness-loop threads); 0 is taken as 1.
  std::size_t shards = 4;
  /// Connections beyond this get Status::Busy at accept time.
  std::size_t max_connections = 64;
  /// Per-request byte budget; larger GETs get Status::TooLarge.
  std::size_t max_request_bytes = 1 << 20;
  /// Bound on queued-but-unsent response bytes per connection; a peer
  /// that stops reading past this gets Status::Busy and a close.
  std::size_t max_write_queue_bytes = 4 << 20;

  /// Token buckets (bytes); a rate of 0 disables that bucket.
  std::uint64_t global_rate_bytes_per_s = 0;
  std::uint64_t global_burst_bytes = 1 << 20;
  std::uint64_t per_conn_rate_bytes_per_s = 0;
  std::uint64_t per_conn_burst_bytes = 1 << 16;

  /// Retired producers at or above which the ladder reads DEGRADED.
  std::size_t degraded_after_retired = 1;

  /// Decision thresholds applied to the streaming-certification
  /// snapshots in CERT/STATS output (pool.certify enables the trackers).
  stats::streaming::Thresholds cert;

  /// Noise fidelity label reported as `noise_mode` in STATS output
  /// ("exact" or "fast").  Purely informational — the actual mode lives
  /// in the producer configs the SourceFactory captures.
  std::string noise_mode_label = "exact";

  /// DRBG parameters for the Drbg quality and the DEGRADED fallback
  /// (reseed_interval controls how often generate calls pull fresh pool
  /// entropy on their own, on top of the per-quarantine reseeds).
  core::HmacDrbgConfig drbg;

  /// The entropy pool this server fronts.
  core::EntropyPoolConfig pool;

  /// Injectable monotonic clock (nanoseconds) for the token buckets and
  /// the subscription push cadence (tests freeze it for determinism).
  TokenBucket::Clock clock;

  /// Force the portable poll(2) poller backend even where epoll exists
  /// (CI exercises the fallback on Linux through this).
  bool force_poll_backend = false;

  /// Test seam for the accept path: called instead of
  /// accept_nonblocking(listener_fd) when set.  Must return a
  /// non-blocking fd or -1 with errno set (see classify_accept_errno).
  std::function<int(int)> accept_fn;
};

class EntropyServer {
 public:
  /// Starts the pool, the listeners and the shard loops.  `factory`
  /// builds the pool's producers (see EntropyPool::SourceFactory) — the
  /// fault-injection tests drive the degradation ladder through it.
  EntropyServer(EntropyServerConfig config,
                core::EntropyPool::SourceFactory factory);

  ~EntropyServer();

  EntropyServer(const EntropyServer&) = delete;
  EntropyServer& operator=(const EntropyServer&) = delete;

  /// Stop the pool (unblocking any in-flight draw), wake every shard
  /// loop, close every connection and join the shards; idempotent (the
  /// destructor calls it).  active_connections() is 0 on return.
  void stop();

  /// Actual TCP port (after ephemeral binding); 0 if TCP is disabled.
  std::uint16_t tcp_port() const { return tcp_port_; }
  const std::string& unix_path() const { return config_.unix_path; }

  /// Current degradation-ladder state, derived from pool health.
  ServiceState state() const;

  const Metrics& metrics() const { return metrics_; }
  std::size_t active_connections() const {
    return static_cast<std::size_t>(
        metrics_.connections_active.load(std::memory_order_acquire));
  }
  std::size_t shard_count() const { return shards_.size(); }
  /// Whether the shards run the epoll backend (false = poll fallback).
  bool using_epoll() const;
  core::PoolHealthSnapshot pool_snapshot() const { return pool_.snapshot(); }
  core::PoolCertSnapshot pool_cert_snapshot() const {
    return pool_.cert_snapshot();
  }

 private:
  /// TrngSource view of the pool, for seeding/reseeding the DRBG from the
  /// surviving producers (bits are pool bytes, MSB-first like
  /// EntropyPool's own packing).
  class PoolSource final : public core::TrngSource {
   public:
    explicit PoolSource(core::EntropyPool& pool) : pool_(pool) {}
    std::string name() const override { return "entropy-pool"; }
    bool next_bit() override;
    void restart() override {}
    sim::ResourceCounts resources() const override { return {}; }
    double clock_mhz() const override { return 0.0; }
    fpga::ActivityEstimate activity() const override { return {}; }

   private:
    core::EntropyPool& pool_;
    std::vector<std::uint8_t> buf_;
    std::size_t bit_ = 0;
  };

  /// Per-connection state machine, owned by exactly one shard (no lock:
  /// only that shard's loop thread touches it).
  struct Connection {
    Connection(int fd, const EntropyServerConfig& cfg)
        : sock(fd),
          bucket(cfg.per_conn_rate_bytes_per_s, cfg.per_conn_burst_bytes,
                 cfg.clock) {}

    Socket sock;
    FrameAssembler assembler;
    TokenBucket bucket;

    /// Queued response frames; `write_head` is the sent prefix of the
    /// front frame, `write_bytes` the total unsent bytes (the bound).
    std::deque<std::vector<std::uint8_t>> write_q;
    std::size_t write_head = 0;
    std::size_t write_bytes = 0;
    bool want_write = false;        ///< write interest registered
    bool close_after_flush = false; ///< close once write_q drains
    bool read_closed = false;       ///< peer EOF seen; stop reading

    // Subscription stream state (SUBSCRIBE .. UNSUBSCRIBE/disconnect).
    bool subscribed = false;
    Quality sub_quality = Quality::Raw;
    std::uint32_t sub_chunk = 0;
    std::uint32_t sub_interval_ms = 0;
    std::uint64_t sub_due_ns = 0;  ///< injectable-clock time of next push
    bool sub_deferred = false;     ///< last push attempt was deferred
  };

  /// A listener owned by one shard.  `distribute` marks listeners whose
  /// accepts are handed round-robin to the other shards (the Unix-domain
  /// listener, and the single TCP listener when SO_REUSEPORT sharding is
  /// unavailable); per-shard SO_REUSEPORT TCP listeners attach locally.
  struct ShardListener {
    Listener listener;
    bool distribute = false;
  };

  /// One event-loop shard: poller + doorbell + its listeners and
  /// connections.  Only `adopted` crosses threads (shard 0 hands
  /// distributed accepts over) and is mutex-protected.
  struct Shard {
    explicit Shard(Poller::Backend backend) : poller(backend) {}
    std::size_t index = 0;
    Poller poller;
    WakePipe wake;
    std::vector<ShardListener> listeners;
    std::unordered_map<int, std::unique_ptr<Connection>> conns;
    std::mutex adopted_mutex;
    std::vector<int> adopted;
    std::thread thread;
  };

  void shard_loop(Shard& shard);
  int shard_timeout_ms(const Shard& shard) const;
  void drain_accepts(Shard& shard, ShardListener& sl);
  /// Claim a connection slot for a freshly accepted fd; Busy+close over
  /// the cap.  Returns true when the slot was claimed.
  bool claim_slot(int fd);
  /// Attach an accepted (slot-holding) fd to `shard`'s loop.
  void attach_connection(Shard& shard, int fd);
  void handle_readable(Shard& shard, Connection& conn);
  /// Serve one complete request payload (decode + dispatch + enqueue).
  void serve_payload(Shard& shard, Connection& conn,
                     const std::vector<std::uint8_t>& payload);
  /// GET/STATS/CERT dispatch shared with the blocking-era semantics.
  Response serve_request(const Request& request, TokenBucket& conn_bucket);
  void enqueue_frame(Shard& shard, Connection& conn,
                     std::vector<std::uint8_t> frame);
  /// Batched non-blocking flush; closes the connection on write error or
  /// once drained with close_after_flush set.
  void flush_writes(Shard& shard, Connection& conn);
  /// Attempt every due subscription push on this shard once.
  void service_subscriptions(Shard& shard);
  /// One push attempt; updates deferral state and cadence.
  void push_subscription(Shard& shard, Connection& conn);
  void end_subscription(Connection& conn);
  void close_connection(Shard& shard, int fd);

  /// Draw `n` bytes at `quality`; throws core::EntropyExhausted.
  std::vector<std::uint8_t> draw(Quality quality, std::size_t n);
  /// DEGRADED path: DRBG output, reseeding when pool health changed.
  std::vector<std::uint8_t> draw_degraded(std::size_t n);
  /// DRBG access (lazy instantiation) under drbg_mutex_.
  core::HmacDrbg& drbg_locked();

  std::uint64_t clock_now_ns() const;
  int do_accept(int listener_fd);

  EntropyServerConfig config_;
  core::EntropyPool pool_;
  Metrics metrics_;

  PoolSource pool_source_{pool_};
  std::mutex drbg_mutex_;
  std::unique_ptr<core::HmacDrbg> drbg_;
  std::uint64_t reseed_watermark_ = 0;  ///< pool quarantines at last reseed

  TokenBucket global_bucket_;
  std::atomic<bool> stopping_{false};
  std::mutex stop_mutex_;  ///< serializes stop() with the constructor

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::size_t> handoff_rr_{0};  ///< Unix-accept round robin
  std::uint16_t tcp_port_ = 0;
};

}  // namespace dhtrng::service
