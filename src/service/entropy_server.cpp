#include "service/entropy_server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>
#include <utility>

#include "support/sha256.h"

namespace dhtrng::service {

namespace {

/// Frames batched into one sendmsg call.
constexpr std::size_t kWritevBatch = 16;
/// Retry cadence (real time) for deferred subscription pushes — short
/// enough that a drained bucket is noticed promptly, long enough not to
/// spin while the bucket refills.
constexpr int kDeferredRetryMs = 2;
/// Idle loop heartbeat (stop() uses the wake pipe, this is a safety net).
constexpr int kIdleTimeoutMs = 500;

}  // namespace

bool EntropyServer::PoolSource::next_bit() {
  if (bit_ == buf_.size() * 8) {
    buf_ = pool_.get_bytes(64);  // throws EntropyExhausted when pool is gone
    bit_ = 0;
  }
  const std::uint8_t byte = buf_[bit_ / 8];
  const bool bit = ((byte >> (7 - bit_ % 8)) & 1u) != 0;
  ++bit_;
  return bit;
}

EntropyServer::EntropyServer(EntropyServerConfig config,
                             core::EntropyPool::SourceFactory factory)
    : config_(std::move(config)),
      pool_(config_.pool, std::move(factory)),
      global_bucket_(config_.global_rate_bytes_per_s,
                     config_.global_burst_bytes, config_.clock) {
  if (config_.degraded_after_retired == 0) config_.degraded_after_retired = 1;
  const std::size_t nshards = std::max<std::size_t>(1, config_.shards);
  const Poller::Backend backend = config_.force_poll_backend
                                      ? Poller::Backend::Poll
                                      : Poller::Backend::Auto;
  shards_.reserve(nshards);
  for (std::size_t i = 0; i < nshards; ++i) {
    shards_.push_back(std::make_unique<Shard>(backend));
    shards_.back()->index = i;
  }

  if (config_.enable_tcp) {
    if (nshards > 1) {
      // One SO_REUSEPORT listener per shard so the kernel load-balances
      // accepts; if the sibling binds fail (no SO_REUSEPORT) fall back to
      // a single listener on shard 0 with round-robin handoff.
      try {
        Listener first = Listener::tcp_loopback(config_.tcp_port, true);
        tcp_port_ = first.port();
        std::vector<Listener> rest;
        rest.reserve(nshards - 1);
        for (std::size_t i = 1; i < nshards; ++i) {
          rest.push_back(Listener::tcp_loopback(tcp_port_, true));
        }
        shards_[0]->listeners.push_back(
            ShardListener{std::move(first), false});
        for (std::size_t i = 1; i < nshards; ++i) {
          shards_[i]->listeners.push_back(
              ShardListener{std::move(rest[i - 1]), false});
        }
      } catch (const std::runtime_error&) {
        Listener only = Listener::tcp_loopback(config_.tcp_port, false);
        tcp_port_ = only.port();
        shards_[0]->listeners.push_back(ShardListener{std::move(only), true});
      }
    } else {
      Listener only = Listener::tcp_loopback(config_.tcp_port, false);
      tcp_port_ = only.port();
      shards_[0]->listeners.push_back(ShardListener{std::move(only), false});
    }
  }
  if (!config_.unix_path.empty()) {
    shards_[0]->listeners.push_back(
        ShardListener{Listener::unix_domain(config_.unix_path), nshards > 1});
  }
  bool any_listener = false;
  for (const auto& shard : shards_) {
    if (!shard->listeners.empty()) any_listener = true;
  }
  if (!any_listener) {
    throw std::invalid_argument("EntropyServer: no listeners configured");
  }

  for (auto& shard : shards_) {
    shard->poller.add(shard->wake.read_fd(), /*want_read=*/true,
                      /*want_write=*/false);
    for (auto& sl : shard->listeners) {
      sl.listener.set_nonblocking();
      shard->poller.add(sl.listener.fd(), /*want_read=*/true,
                        /*want_write=*/false);
    }
  }
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    s->thread = std::thread([this, s] { shard_loop(*s); });
  }
}

EntropyServer::~EntropyServer() { stop(); }

void EntropyServer::stop() {
  std::lock_guard<std::mutex> lock(stop_mutex_);
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  // Stop the pool first: a shard blocked inside a draw (pool buffer
  // empty) observes EntropyExhausted and returns to its loop, where the
  // doorbell below is waiting.
  pool_.stop();
  for (auto& shard : shards_) shard->wake.notify();
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
}

ServiceState EntropyServer::state() const {
  const core::PoolHealthSnapshot snap = pool_.snapshot();
  if (snap.healthy == 0) return ServiceState::Exhausted;
  if (snap.retired >= config_.degraded_after_retired) {
    return ServiceState::Degraded;
  }
  return ServiceState::Healthy;
}

bool EntropyServer::using_epoll() const {
  return !shards_.empty() && shards_[0]->poller.using_epoll();
}

std::uint64_t EntropyServer::clock_now_ns() const {
  if (config_.clock) return config_.clock();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

int EntropyServer::do_accept(int listener_fd) {
  if (config_.accept_fn) return config_.accept_fn(listener_fd);
  return accept_nonblocking(listener_fd);
}

// ---------------------------------------------------------------------------
// Shard event loop
// ---------------------------------------------------------------------------

int EntropyServer::shard_timeout_ms(const Shard& shard) const {
  int timeout = kIdleTimeoutMs;
  std::uint64_t now = 0;
  bool have_now = false;
  for (const auto& kv : shard.conns) {
    const Connection& c = *kv.second;
    if (!c.subscribed || c.close_after_flush) continue;
    if (c.sub_deferred) {
      timeout = std::min(timeout, kDeferredRetryMs);
      continue;
    }
    if (c.sub_interval_ms == 0) return 0;
    if (!have_now) {
      now = clock_now_ns();
      have_now = true;
    }
    if (now >= c.sub_due_ns) return 0;
    const std::uint64_t ms = (c.sub_due_ns - now) / 1000000u + 1;
    timeout = std::min<int>(
        timeout, static_cast<int>(std::min<std::uint64_t>(
                     ms, static_cast<std::uint64_t>(kIdleTimeoutMs))));
  }
  return timeout;
}

void EntropyServer::shard_loop(Shard& shard) {
  std::vector<Poller::Event> events;
  while (true) {
    shard.poller.wait(events, shard_timeout_ms(shard));
    metrics_.epoll_wakeups.fetch_add(1, std::memory_order_relaxed);
    if (stopping_.load(std::memory_order_acquire)) break;

    // Adopt handed-off connections first so their events (already
    // pending in the kernel) are picked up on the next wait.
    std::vector<int> adopted;
    {
      std::lock_guard<std::mutex> lock(shard.adopted_mutex);
      adopted.swap(shard.adopted);
    }
    for (int fd : adopted) attach_connection(shard, fd);

    for (const Poller::Event& event : events) {
      if (event.fd == shard.wake.read_fd()) {
        shard.wake.drain();
        continue;
      }
      bool was_listener = false;
      for (auto& sl : shard.listeners) {
        if (sl.listener.fd() == event.fd) {
          drain_accepts(shard, sl);
          was_listener = true;
          break;
        }
      }
      if (was_listener) continue;
      auto it = shard.conns.find(event.fd);
      if (it == shard.conns.end()) continue;  // closed earlier this batch
      if (event.readable || event.hangup) {
        handle_readable(shard, *it->second);
        it = shard.conns.find(event.fd);
        if (it == shard.conns.end()) continue;
      }
      if (event.writable) flush_writes(shard, *it->second);
    }

    service_subscriptions(shard);
  }

  // Shutdown: close adopted-but-unattached fds (they hold slots), then
  // every live connection, then the listeners.
  {
    std::lock_guard<std::mutex> lock(shard.adopted_mutex);
    for (int fd : shard.adopted) {
      ::close(fd);
      metrics_.connections_closed.fetch_add(1, std::memory_order_relaxed);
      metrics_.connections_active.fetch_sub(1, std::memory_order_acq_rel);
    }
    shard.adopted.clear();
  }
  std::vector<int> fds;
  fds.reserve(shard.conns.size());
  for (const auto& kv : shard.conns) fds.push_back(kv.first);
  for (int fd : fds) close_connection(shard, fd);
  for (auto& sl : shard.listeners) sl.listener.close();
}

void EntropyServer::drain_accepts(Shard& shard, ShardListener& sl) {
  while (true) {
    const int listener_fd = sl.listener.fd();
    if (listener_fd < 0) return;  // closed after a fatal error
    const int fd = do_accept(listener_fd);
    if (fd >= 0) {
      metrics_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
      if (!claim_slot(fd)) continue;
      if (sl.distribute && shards_.size() > 1) {
        const std::size_t target = handoff_rr_.fetch_add(
                                       1, std::memory_order_relaxed) %
                                   shards_.size();
        if (target != shard.index) {
          Shard& dest = *shards_[target];
          {
            std::lock_guard<std::mutex> lock(dest.adopted_mutex);
            dest.adopted.push_back(fd);
          }
          dest.wake.notify();
          continue;
        }
      }
      attach_connection(shard, fd);
      continue;
    }
    switch (classify_accept_errno(errno)) {
      case AcceptOutcome::WouldBlock:
        return;
      case AcceptOutcome::Retry:
        metrics_.accept_retries.fetch_add(1, std::memory_order_relaxed);
        continue;
      case AcceptOutcome::SoftExhausted:
        // fd/memory pressure: brief pause; the level-triggered poller
        // re-reports the backlog, so this costs one retry every 2 ms
        // until pressure clears instead of a hot spin.
        metrics_.accept_soft_errors.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        return;
      case AcceptOutcome::Fatal:
        metrics_.accept_fatal_errors.fetch_add(1, std::memory_order_relaxed);
        shard.poller.del(listener_fd);
        sl.listener.close();
        return;
    }
  }
}

bool EntropyServer::claim_slot(int fd) {
  const std::uint64_t slot =
      metrics_.connections_active.fetch_add(1, std::memory_order_acq_rel);
  if (slot < config_.max_connections) return true;
  metrics_.connections_active.fetch_sub(1, std::memory_order_acq_rel);
  metrics_.count_error(Status::Busy);
  // Best-effort unsolicited Busy on the fresh socket (a ~35-byte frame
  // always fits the empty send buffer), then close.
  const auto frame = encode_error_frame(Status::Busy, "connection slots full");
  (void)::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
  ::close(fd);
  return false;
}

void EntropyServer::attach_connection(Shard& shard, int fd) {
  auto conn = std::make_unique<Connection>(fd, config_);
  conn->sock.set_nodelay();
  shard.poller.add(fd, /*want_read=*/true, /*want_write=*/false);
  shard.conns.emplace(fd, std::move(conn));
}

void EntropyServer::close_connection(Shard& shard, int fd) {
  auto it = shard.conns.find(fd);
  if (it == shard.conns.end()) return;
  Connection& conn = *it->second;
  if (conn.subscribed) end_subscription(conn);
  shard.poller.del(fd);
  conn.sock.close();
  shard.conns.erase(it);
  metrics_.connections_closed.fetch_add(1, std::memory_order_relaxed);
  metrics_.connections_active.fetch_sub(1, std::memory_order_acq_rel);
}

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

void EntropyServer::handle_readable(Shard& shard, Connection& conn) {
  const int fd = conn.sock.fd();
  std::uint8_t buf[16384];
  while (!conn.read_closed) {
    const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
    if (r > 0) {
      conn.assembler.feed(buf, static_cast<std::size_t>(r));
      std::vector<std::uint8_t> payload;
      while (!conn.close_after_flush && conn.assembler.next(payload)) {
        serve_payload(shard, conn, payload);
      }
      if (!conn.close_after_flush &&
          conn.assembler.error() != FrameAssembler::Error::None) {
        // Zero-length or oversized request frame: the stream cannot be
        // trusted past this point, so answer with a structured error and
        // close once it has flushed.
        metrics_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        metrics_.count_error(Status::BadRequest);
        const bool zero =
            conn.assembler.error() == FrameAssembler::Error::ZeroLength;
        enqueue_frame(shard, conn,
                      encode_error_frame(Status::BadRequest,
                                         zero ? "zero-length frame"
                                              : "request frame too large"));
        conn.close_after_flush = true;
      }
      if (conn.close_after_flush) {
        conn.read_closed = true;
        shard.poller.mod(fd, /*want_read=*/false, conn.want_write);
        break;
      }
      continue;
    }
    if (r == 0) {  // peer EOF
      if (conn.assembler.buffered() > 0 &&
          conn.assembler.error() == FrameAssembler::Error::None) {
        // Disconnect mid-frame: nobody left to answer.
        metrics_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      }
      conn.read_closed = true;
      conn.close_after_flush = true;  // flush queued responses, then close
      shard.poller.mod(fd, /*want_read=*/false, conn.want_write);
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    close_connection(shard, fd);  // hard socket error
    return;
  }
  flush_writes(shard, conn);
}

void EntropyServer::serve_payload(Shard& shard, Connection& conn,
                                  const std::vector<std::uint8_t>& payload) {
  Request request;
  const DecodeError err =
      decode_request(payload.data(), payload.size(), request);
  if (err != DecodeError::None) {
    metrics_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    metrics_.count_error(Status::BadRequest);
    enqueue_frame(shard, conn,
                  encode_error_frame(Status::BadRequest,
                                     decode_error_name(err)));
    conn.close_after_flush = true;
    return;
  }

  if (request.op == Opcode::Subscribe) {
    const auto reject = [&](Status status, const char* detail) {
      metrics_.count_error(status);
      enqueue_frame(shard, conn, encode_error_frame(status, detail));
    };
    if (stopping_.load(std::memory_order_acquire)) {
      reject(Status::ShuttingDown, "server stopping");
      return;
    }
    if (conn.subscribed) {
      reject(Status::BadRequest, "already subscribed");
      return;
    }
    if (request.n_bytes == 0) {
      reject(Status::BadRequest, "zero-byte subscription chunk");
      return;
    }
    if (request.n_bytes > config_.max_request_bytes) {
      reject(Status::TooLarge, "subscription chunk above per-request budget");
      return;
    }
    conn.subscribed = true;
    conn.sub_quality = request.quality;
    conn.sub_chunk = request.n_bytes;
    conn.sub_interval_ms = request.interval_ms;
    conn.sub_due_ns = clock_now_ns();  // first push is immediately due
    conn.sub_deferred = false;
    metrics_.subscriptions_opened.fetch_add(1, std::memory_order_relaxed);
    metrics_.subscriptions_active.fetch_add(1, std::memory_order_relaxed);
    enqueue_frame(shard, conn, encode_response_frame(Status::Ok, 0, {}));
    return;
  }
  if (request.op == Opcode::Unsubscribe) {
    if (!conn.subscribed) {
      metrics_.count_error(Status::BadRequest);
      enqueue_frame(shard, conn, encode_error_frame(Status::BadRequest,
                                                    "no active subscription"));
      return;
    }
    end_subscription(conn);
    // FIFO write queue: every already-queued push precedes this ack, so
    // the ack is the stream-end marker the protocol promises.
    enqueue_frame(shard, conn, encode_response_frame(Status::Ok, 0, {}));
    return;
  }

  const Response response = serve_request(request, conn.bucket);
  enqueue_frame(shard, conn,
                encode_response_frame(response.status, response.flags,
                                      response.payload));
}

Response EntropyServer::serve_request(const Request& request,
                                      TokenBucket& conn_bucket) {
  Response response;
  const auto error = [&](Status status, const std::string& detail) {
    response.status = status;
    response.payload.assign(detail.begin(), detail.end());
    metrics_.count_error(status);
    return response;
  };

  if (request.op == Opcode::Stats) {
    metrics_.stats_requests.fetch_add(1, std::memory_order_relaxed);
    const core::PoolCertSnapshot cert = pool_.cert_snapshot();
    const std::string text =
        render_stats(metrics_, state(), pool_.snapshot(), &cert,
                     config_.cert, config_.noise_mode_label);
    response.payload.assign(text.begin(), text.end());
    return response;
  }
  if (request.op == Opcode::Cert) {
    metrics_.cert_requests.fetch_add(1, std::memory_order_relaxed);
    const std::string text = render_cert(pool_.cert_snapshot(), config_.cert);
    response.payload.assign(text.begin(), text.end());
    return response;
  }

  const std::size_t n = request.n_bytes;
  if (stopping_.load(std::memory_order_acquire)) {
    return error(Status::ShuttingDown, "server stopping");
  }
  if (n > config_.max_request_bytes) {
    return error(Status::TooLarge, "request above per-request byte budget");
  }
  if (!conn_bucket.try_acquire(n)) {
    return error(Status::RateLimited, "per-connection rate limit");
  }
  if (!global_bucket_.try_acquire(n)) {
    return error(Status::RateLimited, "global rate limit");
  }

  const ServiceState st = state();
  if (st == ServiceState::Exhausted) {
    // Fail closed: no live noise source behind the service, so refuse —
    // even though gated bytes may remain buffered and the fallback DRBG
    // could keep stretching its last seed.
    return error(Status::Exhausted, "all entropy producers retired");
  }
  try {
    if (st == ServiceState::Degraded) {
      response.payload = draw_degraded(n);
      response.flags |= kFlagDegraded;
    } else {
      response.payload = draw(request.quality, n);
    }
  } catch (const core::EntropyExhausted&) {
    return error(Status::Exhausted, "entropy pool exhausted mid-request");
  }
  metrics_.count_served(request.quality, n, response.degraded());
  return response;
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

void EntropyServer::enqueue_frame(Shard& shard, Connection& conn,
                                  std::vector<std::uint8_t> frame) {
  if (!conn.sock.valid()) return;
  if (conn.write_bytes + frame.size() > config_.max_write_queue_bytes) {
    // The peer stopped reading: bounded back-pressure means we refuse to
    // buffer further.  Drop this frame, append one small structured Busy
    // (a constant-size overshoot of the cap) and close once it flushes.
    if (conn.close_after_flush) return;  // overflow already answered
    metrics_.write_queue_overflows.fetch_add(1, std::memory_order_relaxed);
    metrics_.count_error(Status::Busy);
    auto busy = encode_error_frame(Status::Busy, "write queue overflow");
    conn.write_bytes += busy.size();
    conn.write_q.push_back(std::move(busy));
    conn.close_after_flush = true;
    conn.read_closed = true;
    shard.poller.mod(conn.sock.fd(), /*want_read=*/false, conn.want_write);
    return;
  }
  conn.write_bytes += frame.size();
  conn.write_q.push_back(std::move(frame));
}

void EntropyServer::flush_writes(Shard& shard, Connection& conn) {
  const int fd = conn.sock.fd();
  while (!conn.write_q.empty()) {
    iovec iov[kWritevBatch];
    std::size_t niov = 0;
    std::size_t head = conn.write_head;
    for (const auto& frame : conn.write_q) {
      if (niov == kWritevBatch) break;
      iov[niov].iov_base =
          const_cast<std::uint8_t*>(frame.data()) + head;
      iov[niov].iov_len = frame.size() - head;
      head = 0;  // only the front frame has a sent prefix
      ++niov;
    }
    msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = niov;
    const ssize_t sent = ::sendmsg(fd, &mh, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!conn.want_write) {
          conn.want_write = true;
          shard.poller.mod(fd, !conn.read_closed, /*want_write=*/true);
        }
        return;
      }
      close_connection(shard, fd);  // peer reset mid-response
      return;
    }
    metrics_.writev_calls.fetch_add(1, std::memory_order_relaxed);
    std::size_t remaining = static_cast<std::size_t>(sent);
    conn.write_bytes -= remaining;
    while (remaining > 0) {
      auto& front = conn.write_q.front();
      const std::size_t avail = front.size() - conn.write_head;
      if (remaining >= avail) {
        remaining -= avail;
        conn.write_q.pop_front();
        conn.write_head = 0;
        metrics_.writev_frames.fetch_add(1, std::memory_order_relaxed);
      } else {
        conn.write_head += remaining;
        remaining = 0;
      }
    }
  }
  if (conn.close_after_flush) {
    close_connection(shard, fd);
    return;
  }
  if (conn.want_write) {
    conn.want_write = false;
    shard.poller.mod(fd, !conn.read_closed, /*want_write=*/false);
  }
}

// ---------------------------------------------------------------------------
// Subscription pushes
// ---------------------------------------------------------------------------

void EntropyServer::end_subscription(Connection& conn) {
  conn.subscribed = false;
  conn.sub_deferred = false;
  metrics_.subscriptions_closed.fetch_add(1, std::memory_order_relaxed);
  metrics_.subscriptions_active.fetch_sub(1, std::memory_order_relaxed);
}

void EntropyServer::service_subscriptions(Shard& shard) {
  if (shard.conns.empty()) return;
  std::vector<int> fds;
  for (const auto& kv : shard.conns) {
    if (kv.second->subscribed) fds.push_back(kv.first);
  }
  for (int fd : fds) {
    auto it = shard.conns.find(fd);
    if (it == shard.conns.end()) continue;
    push_subscription(shard, *it->second);
    it = shard.conns.find(fd);
    if (it != shard.conns.end()) flush_writes(shard, *it->second);
  }
}

void EntropyServer::push_subscription(Shard& shard, Connection& conn) {
  if (!conn.subscribed || conn.close_after_flush) return;
  if (!(conn.sub_interval_ms == 0 || conn.sub_deferred ||
        clock_now_ns() >= conn.sub_due_ns)) {
    return;  // not due yet
  }

  const auto end_stream = [&](Status status, const char* detail) {
    metrics_.count_error(status);
    enqueue_frame(shard, conn,
                  encode_response_frame(
                      status, kFlagPush,
                      std::vector<std::uint8_t>(detail,
                                                detail + std::strlen(detail))));
    end_subscription(conn);
    conn.close_after_flush = true;
    conn.read_closed = true;
    shard.poller.mod(conn.sock.fd(), /*want_read=*/false, conn.want_write);
  };

  if (stopping_.load(std::memory_order_acquire)) {
    end_stream(Status::ShuttingDown, "server stopping");
    return;
  }
  // A push is taken whole or not at all — first the write-queue room
  // (checked before any tokens are spent), then the buckets — so the
  // byte accounting identity holds exactly for streams too.
  const std::size_t frame_bytes =
      kLenPrefixBytes + kResponseHeaderBytes + conn.sub_chunk;
  if (conn.write_bytes + frame_bytes > config_.max_write_queue_bytes) {
    metrics_.subscribe_deferred_backpressure.fetch_add(
        1, std::memory_order_relaxed);
    conn.sub_deferred = true;
    return;
  }
  if (!conn.bucket.try_acquire(conn.sub_chunk)) {
    metrics_.subscribe_deferred_rate.fetch_add(1, std::memory_order_relaxed);
    conn.sub_deferred = true;
    return;
  }
  if (!global_bucket_.try_acquire(conn.sub_chunk)) {
    metrics_.subscribe_deferred_rate.fetch_add(1, std::memory_order_relaxed);
    conn.sub_deferred = true;
    return;
  }

  const ServiceState st = state();
  if (st == ServiceState::Exhausted) {
    end_stream(Status::Exhausted, "all entropy producers retired");
    return;
  }
  std::vector<std::uint8_t> payload;
  try {
    payload = st == ServiceState::Degraded ? draw_degraded(conn.sub_chunk)
                                           : draw(conn.sub_quality,
                                                  conn.sub_chunk);
  } catch (const core::EntropyExhausted&) {
    end_stream(Status::Exhausted, "entropy pool exhausted mid-push");
    return;
  }
  const bool degraded = st == ServiceState::Degraded;
  const std::uint8_t flags =
      kFlagPush | (degraded ? kFlagDegraded : std::uint8_t{0});
  enqueue_frame(shard, conn,
                encode_response_frame(Status::Ok, flags, payload));
  metrics_.count_served(conn.sub_quality, conn.sub_chunk, degraded);
  metrics_.subscribe_pushes.fetch_add(1, std::memory_order_relaxed);
  metrics_.subscribe_push_bytes.fetch_add(conn.sub_chunk,
                                          std::memory_order_relaxed);
  if (degraded) {
    metrics_.subscribe_pushes_degraded.fetch_add(1,
                                                 std::memory_order_relaxed);
  }
  conn.sub_deferred = false;
  conn.sub_due_ns = clock_now_ns() +
                    static_cast<std::uint64_t>(conn.sub_interval_ms) * 1000000u;
}

// ---------------------------------------------------------------------------
// Entropy draws (unchanged from the blocking-era server)
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> EntropyServer::draw(Quality quality,
                                              std::size_t n) {
  switch (quality) {
    case Quality::Raw:
      return pool_.get_bytes(n);
    case Quality::Conditioned: {
      // Vetted conditioning (SP 800-90B 3.1.5.1.2): SHA-256 over 64-byte
      // pool blocks, 2:1 compression — 512 health-gated input bits per
      // 256 output bits.
      std::vector<std::uint8_t> out;
      out.reserve(n);
      while (out.size() < n) {
        const auto digest = support::Sha256::hash(pool_.get_bytes(64));
        const std::size_t take =
            std::min<std::size_t>(digest.size(), n - out.size());
        out.insert(out.end(), digest.begin(),
                   digest.begin() + static_cast<std::ptrdiff_t>(take));
      }
      return out;
    }
    case Quality::Drbg: {
      std::lock_guard<std::mutex> lock(drbg_mutex_);
      return drbg_locked().generate(n);
    }
  }
  throw std::invalid_argument("EntropyServer: unknown quality");
}

std::vector<std::uint8_t> EntropyServer::draw_degraded(std::size_t n) {
  std::lock_guard<std::mutex> lock(drbg_mutex_);
  const bool instantiating = drbg_ == nullptr;
  core::HmacDrbg& drbg = drbg_locked();
  if (instantiating) {
    // Lazy instantiation inside DEGRADED is itself the re-key from the
    // surviving producers the ladder promises.
    metrics_.drbg_fallback_reseeds.fetch_add(1, std::memory_order_relaxed);
    return drbg.generate(n);
  }
  // Every pool quarantine since the last reseed means the producer set
  // changed under us: re-key from the surviving producers before serving.
  const std::uint64_t quarantines = pool_.quarantine_events();
  if (quarantines != reseed_watermark_) {
    drbg.reseed();
    reseed_watermark_ = quarantines;
    metrics_.drbg_fallback_reseeds.fetch_add(1, std::memory_order_relaxed);
  }
  return drbg.generate(n);
}

core::HmacDrbg& EntropyServer::drbg_locked() {
  if (!drbg_) {
    const std::string pers = "dhtrng-entropy-service";
    drbg_ = std::make_unique<core::HmacDrbg>(
        pool_source_, config_.drbg,
        std::vector<std::uint8_t>(pers.begin(), pers.end()));
    reseed_watermark_ = pool_.quarantine_events();
  }
  return *drbg_;
}

}  // namespace dhtrng::service
