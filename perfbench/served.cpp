// Served workloads: an in-process service::EntropyServer on loopback TCP,
// measured from outside by a closed-loop client — one driver thread, four
// connections, each sending its next GET only once the previous reply is
// complete.  The client frames and checks replies itself (epoll, raw
// sockets), so client cost does not move when the server's own framing
// code changes.
#include <arpa/inet.h>
#include <cerrno>
#include <fcntl.h>
#include <fstream>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <stdexcept>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/dhtrng_soa.h"
#include "service/entropy_server.h"
#include "service/protocol.h"
#include "stats/health.h"
#include "workloads.h"

namespace perfbench {
namespace {

using dhtrng::service::EntropyServer;
using dhtrng::service::Quality;

/// Both served workloads send Raw GETs of kRequestBytes to one shard.
constexpr std::uint32_t kRequestBytes = 4096;

struct ServedSpec {
  const char* name;
  std::size_t producers;
  bool soa;  ///< DhTrngSoA producers (fast noise); else XoshiroSource
};

constexpr ServedSpec kSpecs[] = {
    {"raw_bulk", 1, false},
    {"soa_cert", 2, true},
};

const ServedSpec* find_spec(const std::string& name) {
  for (const ServedSpec& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

/// Server and pool counters sampled together at one instant.
struct Counters {
  std::uint64_t t_ns = 0;
  std::uint64_t bytes_served = 0;
  std::uint64_t responses_ok = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t writev_calls = 0;
  std::uint64_t writev_frames = 0;
  std::uint64_t pool_bytes = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t reseeds = 0;
  std::uint64_t retired = 0;
};

Counters sample_counters(const EntropyServer& server) {
  const auto& m = server.metrics();
  const auto pool = server.pool_snapshot();
  Counters c;
  c.t_ns = now_ns();
  c.bytes_served = m.bytes_served_total.load(std::memory_order_relaxed);
  c.responses_ok = m.responses_ok.load(std::memory_order_relaxed) +
                   m.responses_degraded.load(std::memory_order_relaxed);
  c.wakeups = m.epoll_wakeups.load(std::memory_order_relaxed);
  c.writev_calls = m.writev_calls.load(std::memory_order_relaxed);
  c.writev_frames = m.writev_frames.load(std::memory_order_relaxed);
  c.pool_bytes = pool.bytes_produced;
  c.quarantines = pool.quarantines;
  c.reseeds = pool.reseeds;
  c.retired = pool.retired;
  return c;
}

/// Client-side spans of one GET, all steady-clock ns: client.get spans
/// send_start..last_byte and parents client.send (send_start..send_end),
/// client.wait (send_end..first_byte) and client.recv (first..last byte).
struct RequestTrace {
  std::uint64_t id = 0;
  std::uint32_t conn = 0;
  std::uint64_t send_start = 0;
  std::uint64_t send_end = 0;
  std::uint64_t first_byte = 0;
  std::uint64_t last_byte = 0;
};

/// Bit-reverse a byte: pool bytes are packed MSB-first in emission order,
/// the health tests take words LSB-first in emission order.
std::uint8_t reverse_bits(std::uint8_t v) {
  v = static_cast<std::uint8_t>((v & 0xF0u) >> 4 | (v & 0x0Fu) << 4);
  v = static_cast<std::uint8_t>((v & 0xCCu) >> 2 | (v & 0x33u) << 2);
  v = static_cast<std::uint8_t>((v & 0xAAu) >> 1 | (v & 0x55u) << 1);
  return v;
}

/// A non-blocking TCP client socket connected to 127.0.0.1:`port`.
int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    throw std::runtime_error("connect to 127.0.0.1 failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// The closed-loop driver: kConnections non-blocking sockets on one epoll
/// set, at most one GET in flight per connection.
class ClosedLoop {
 public:
  ClosedLoop(std::uint16_t port, const ServedSpec& spec,
             std::uint64_t sample_seed)
      : rtt_us(sample_seed),
        health(kCheckMinEntropy),
        spec_(spec),
        request_(dhtrng::service::encode_get_request(Quality::Raw,
                                                     kRequestBytes)) {
    epoll_fd_ = ::epoll_create1(0);
    if (epoll_fd_ < 0) throw std::runtime_error("epoll_create1 failed");
    conns_.resize(kConnections);
    for (std::size_t i = 0; i < kConnections; ++i) {
      conns_[i].fd = connect_loopback(port);
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u32 = static_cast<std::uint32_t>(i);
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conns_[i].fd, &ev);
    }
  }

  ~ClosedLoop() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
  }

  ClosedLoop(const ClosedLoop&) = delete;
  ClosedLoop& operator=(const ClosedLoop&) = delete;

  /// Send a GET on every live connection that has none in flight.
  void issue_idle() {
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (conns_[i].fd >= 0 && !conns_[i].awaiting) send_request(i);
    }
  }

  /// Serve socket events until `deadline_ns`, or earlier once no request
  /// is in flight when `stop_when_idle`.  `tick` runs at most every
  /// `tick_ns` (counter sampling in the traced window).
  template <class Tick>
  void pump(std::uint64_t deadline_ns, bool stop_when_idle, Tick&& tick,
            std::uint64_t tick_ns) {
    epoll_event events[kConnections];
    std::uint64_t next_tick = 0;
    while (true) {
      const std::uint64_t now = now_ns();
      if (now >= deadline_ns) break;
      if (stop_when_idle && in_flight() == 0) break;
      if (tick_ns != 0 && now >= next_tick) {
        tick();
        next_tick = now + tick_ns;
      }
      const int timeout_ms = static_cast<int>(
          std::min<std::uint64_t>((deadline_ns - now) / 1000000u + 1, 20));
      const int n = ::epoll_wait(epoll_fd_, events,
                                 static_cast<int>(kConnections), timeout_ms);
      for (int e = 0; e < n; ++e) {
        const std::size_t i = events[e].data.u32;
        if (conns_[i].fd < 0) continue;
        if ((events[e].events & EPOLLOUT) != 0) pump_send(i);
        if ((events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
          pump_recv(i);
        }
      }
    }
  }
  void pump(std::uint64_t deadline_ns, bool stop_when_idle) {
    pump(deadline_ns, stop_when_idle, [] {}, 0);
  }

  std::size_t in_flight() const {
    std::size_t n = 0;
    for (const Conn& c : conns_) n += c.awaiting ? 1 : 0;
    return n;
  }

  /// Count every request still unanswered as failed and stop waiting.
  void abandon_in_flight() {
    for (Conn& c : conns_) {
      if (c.awaiting) {
        c.awaiting = false;
        ++failed;
        note_failure("request unanswered past the deadline");
      }
    }
  }

  bool reissue = false;   ///< closed loop: send the next GET on completion
  bool recording = false; ///< keep latency samples and window byte counts
  bool tracing = false;   ///< keep per-request spans
  bool check_health = false;

  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t ok_bytes = 0;
  std::uint64_t window_ok_bytes = 0;
  Reservoir rtt_us;
  std::vector<RequestTrace> traces;
  dhtrng::stats::HealthMonitor health;

 private:
  struct Conn {
    int fd = -1;
    std::size_t sent = 0;
    bool awaiting = false;
    bool want_write = false;
    bool got_first = false;
    bool send_done = false;
    std::uint64_t id = 0;
    std::uint64_t send_start = 0;
    std::uint64_t send_end = 0;
    std::uint64_t first_byte = 0;
    std::vector<std::uint8_t> rx;
  };

  void note_failure(const char* why) {
    if (failures_printed_ < 5) {
      std::printf("%s: failed GET: %s\n", spec_.name, why);
      ++failures_printed_;
    }
  }

  void kill(std::size_t i, const char* why) {
    Conn& c = conns_[i];
    if (c.awaiting) {
      ++failed;
      note_failure(why);
    }
    c.awaiting = false;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c.fd, nullptr);
    ::close(c.fd);
    c.fd = -1;
  }

  void set_interest(std::size_t i, bool want_write) {
    Conn& c = conns_[i];
    if (c.want_write == want_write) return;
    c.want_write = want_write;
    epoll_event ev{};
    ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
    ev.data.u32 = static_cast<std::uint32_t>(i);
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
  }

  void send_request(std::size_t i) {
    Conn& c = conns_[i];
    c.id = next_id_++;
    c.sent = 0;
    c.awaiting = true;
    c.got_first = false;
    c.send_done = false;
    c.rx.clear();
    c.send_start = now_ns();
    ++attempted;
    pump_send(i);
  }

  void pump_send(std::size_t i) {
    Conn& c = conns_[i];
    while (c.awaiting && c.sent < request_.size()) {
      const ssize_t w = ::send(c.fd, request_.data() + c.sent,
                               request_.size() - c.sent, MSG_NOSIGNAL);
      if (w > 0) {
        c.sent += static_cast<std::size_t>(w);
        continue;
      }
      if (w < 0 && errno == EINTR) continue;
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        set_interest(i, true);
        return;
      }
      kill(i, "send failed");
      return;
    }
    if (c.awaiting && !c.send_done) {
      c.send_done = true;
      c.send_end = now_ns();
      set_interest(i, false);
    }
  }

  void pump_recv(std::size_t i) {
    std::uint8_t buf[1 << 16];
    while (conns_[i].fd >= 0) {
      Conn& c = conns_[i];
      const ssize_t r = ::recv(c.fd, buf, sizeof(buf), 0);
      if (r > 0) {
        if (!c.awaiting) {
          kill(i, "bytes arrived with no request in flight");
          return;
        }
        if (!c.got_first) {
          c.first_byte = now_ns();
          c.got_first = true;
        }
        c.rx.insert(c.rx.end(), buf, buf + r);
        try_complete(i);
        continue;
      }
      if (r < 0 && errno == EINTR) continue;
      if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      kill(i, r == 0 ? "server closed the connection" : "recv failed");
      return;
    }
  }

  void try_complete(std::size_t i) {
    Conn& c = conns_[i];
    if (c.rx.size() < dhtrng::service::kLenPrefixBytes) return;
    const std::size_t len = dhtrng::service::read_u32le(c.rx.data());
    const std::size_t need = dhtrng::service::kLenPrefixBytes + len;
    // An Ok reply is the header plus kRequestBytes; error replies carry a
    // short text instead.
    const std::size_t max_len =
        dhtrng::service::kResponseHeaderBytes + kRequestBytes + 4096;
    if (len > max_len) {
      kill(i, "reply length prefix out of range");
      return;
    }
    if (c.rx.size() < need) return;
    if (c.rx.size() > need) {
      kill(i, "bytes beyond the reply frame");
      return;
    }
    const std::uint64_t last = now_ns();
    dhtrng::service::Response resp;
    const bool decoded = dhtrng::service::decode_response_payload(
        c.rx.data() + dhtrng::service::kLenPrefixBytes, len, resp);
    if (!decoded) {
      ++failed;
      note_failure("reply does not decode");
    } else if (resp.status != dhtrng::service::Status::Ok) {
      ++failed;
      note_failure(dhtrng::service::status_name(resp.status));
    } else if (resp.flags != 0) {
      ++failed;
      note_failure("reply flagged degraded");
    } else if (resp.payload.size() != kRequestBytes) {
      ++failed;
      note_failure("reply length differs from the request");
    } else {
      ++ok;
      ok_bytes += resp.payload.size();
      consume(resp.payload);
      if (recording) {
        window_ok_bytes += resp.payload.size();
        rtt_us.add(static_cast<double>(last - c.send_start) / 1e3);
      }
    }
    if (tracing && recording) {
      traces.push_back({c.id, static_cast<std::uint32_t>(i), c.send_start,
                        c.send_end, c.first_byte, last});
    }
    c.awaiting = false;
    if (reissue) send_request(i);
  }

  void consume(const std::vector<std::uint8_t>& bytes) {
    if (!check_health) return;
    std::size_t k = 0;
    for (; k + 8 <= bytes.size(); k += 8) {
      std::uint64_t w = 0;
      for (std::size_t b = 0; b < 8; ++b) {
        w |= std::uint64_t{reverse_bits(bytes[k + b])} << (8 * b);
      }
      health.feed_word(w, 64);
    }
    for (; k < bytes.size(); ++k) health.feed_word(reverse_bits(bytes[k]), 8);
  }

  const ServedSpec& spec_;
  std::vector<std::uint8_t> request_;
  int epoll_fd_ = -1;
  std::vector<Conn> conns_;
  std::uint64_t next_id_ = 1;
  int failures_printed_ = 0;
};

/// Everything one pass (kRounds rounds of set-ups, warm-up and a measured
/// window, each on a fresh server) produced.
struct PassResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> setup_s;
  RoundSeries rounds;
  // Traced pass only.
  struct Spans {
    int round = 0;
    std::size_t producer = 0;
    std::vector<SourceSpan> spans;
  };
  std::vector<std::pair<int, RequestTrace>> traces;
  std::vector<Spans> source_spans;
  std::vector<std::pair<int, Counters>> counters;  ///< window start/ticks/end
  ProducerTotals producer;  ///< summed over the rounds' windows
  std::uint64_t window_gets = 0;
  std::uint64_t window_wakeups = 0;
  std::uint64_t window_writev_calls = 0;
  std::uint64_t window_writev_frames = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t run_t0 = 0;
};

std::unique_ptr<EntropyServer> make_server(
    const ServedSpec& spec, std::uint64_t seed,
    std::vector<std::unique_ptr<ProducerLedger>>& ledgers, bool traced) {
  ledgers.clear();
  for (std::size_t i = 0; i < spec.producers; ++i) {
    ledgers.push_back(std::make_unique<ProducerLedger>());
  }
  dhtrng::service::EntropyServerConfig cfg;
  cfg.shards = 1;
  cfg.pool.producers = spec.producers;
  cfg.pool.seed = derive_seed(seed, 1);
  if (spec.soa) cfg.noise_mode_label = "fast";
  const bool soa = spec.soa;
  auto factory = [&ledgers, soa, traced](std::size_t index, std::uint64_t s)
      -> std::unique_ptr<dhtrng::core::TrngSource> {
    if (soa) {
      dhtrng::core::DhTrngSoAConfig c;
      c.core.seed = s;
      c.noise_mode = dhtrng::noise::NoiseMode::Fast;
      return std::make_unique<TimedSource<dhtrng::core::DhTrngSoA>>(
          *ledgers[index], traced, c);
    }
    return std::make_unique<TimedSource<XoshiroSource>>(*ledgers[index],
                                                        traced, s);
  };
  return std::make_unique<EntropyServer>(cfg, factory);
}

void run_round(const ServedSpec& spec, const Options& opt, bool traced,
               int round, PassResult& r) {
  // Declaration order matters: the client goes first, the server next,
  // and the ledgers the server's producers write into last.
  std::vector<std::unique_ptr<ProducerLedger>> ledgers;
  std::unique_ptr<EntropyServer> server;
  std::unique_ptr<ClosedLoop> client;

  const auto check = [&r, &spec](bool ok, const std::string& what) {
    if (!ok) {
      std::printf("check FAILED: %s %s\n", spec.name, what.c_str());
      r.correct = false;
    }
  };
  for (int s = 0; s < kSetupsPerRound; ++s) {
    if (client) {
      r.attempted += client->attempted;
      r.failed += client->failed;
    }
    client.reset();
    server.reset();
    const std::uint64_t t0 = now_ns();
    server = make_server(spec, opt.seed, ledgers, traced);
    client = std::make_unique<ClosedLoop>(
        server->tcp_port(), spec,
        derive_seed(opt.seed, 16 + static_cast<unsigned>(round)));
    client->issue_idle();
    client->pump(t0 + 30'000'000'000ull, /*stop_when_idle=*/true);
    const std::uint64_t t1 = now_ns();
    if (client->in_flight() != 0) client->abandon_in_flight();
    check(client->ok == kConnections,
          "set-up: every connection's first GET answered Ok");
    r.setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
  }

  ClosedLoop& cl = *client;
  cl.check_health = spec.soa;
  cl.reissue = true;
  cl.issue_idle();
  const double warmup_s = round == 0 ? kFirstWarmupSeconds : kWarmupSeconds;
  cl.pump(now_ns() + static_cast<std::uint64_t>(warmup_s * 1e9), false);

  const ProducerTotals p0 = ProducerTotals::sample(ledgers);
  const Counters c0 = sample_counters(*server);
  if (traced) r.counters.emplace_back(round, c0);
  cl.recording = true;
  cl.tracing = traced;
  const std::uint64_t t_start = now_ns();
  const std::uint64_t t_end_due =
      t_start + static_cast<std::uint64_t>(opt.seconds / kRounds * 1e9);
  if (traced) {
    cl.pump(t_end_due, false,
            [&] { r.counters.emplace_back(round, sample_counters(*server)); },
            100'000'000ull);
  } else {
    cl.pump(t_end_due, false);
  }
  const std::uint64_t t_end = now_ns();
  cl.recording = false;
  const Counters c1 = sample_counters(*server);
  if (traced) r.counters.emplace_back(round, c1);
  const ProducerTotals p = ProducerTotals::sample(ledgers) - p0;
  r.producer.source_cpu_ns += p.source_cpu_ns;
  r.producer.other_cpu_ns += p.other_cpu_ns;
  r.producer.wall_ns += p.wall_ns;
  r.producer.bits += p.bits;
  r.window_gets += c1.responses_ok - c0.responses_ok;
  r.window_wakeups += c1.wakeups - c0.wakeups;
  r.window_writev_calls += c1.writev_calls - c0.writev_calls;
  r.window_writev_frames += c1.writev_frames - c0.writev_frames;

  // Drain: stop issuing, give in-flight GETs a bounded time to finish.
  cl.reissue = false;
  cl.pump(now_ns() + 5'000'000'000ull, /*stop_when_idle=*/true);
  cl.abandon_in_flight();

  r.rounds.add_round(static_cast<double>(cl.window_ok_bytes) * 8.0 /
                         (static_cast<double>(t_end - t_start) / 1e9) / 1e6,
                     cl.rtt_us);
  for (const RequestTrace& t : cl.traces) r.traces.emplace_back(round, t);

  // Output checks against the server's own accounting.
  const auto& m = server->metrics();
  const std::uint64_t served =
      m.bytes_served_raw.load();
  const auto pool = server->pool_snapshot();
  r.quarantines += pool.quarantines;
  check(cl.failed == 0, "every GET answered Ok with the requested length");
  check(served == cl.ok_bytes,
        "client byte total " + std::to_string(cl.ok_bytes) +
            " equals Metrics::bytes_served " + std::to_string(served));
  check(pool.retired == 0, "pool retired no producer");
  if (spec.soa) {
    check(cl.health.healthy(), "client-side RCT/APT over received bytes pass");
    const auto cert = server->pool_cert_snapshot();
    check(cert.enabled && cert.merged.bits > 0 &&
              cert.merged.pass(dhtrng::stats::streaming::Thresholds{}),
          "merged cert_snapshot() verdict passes over " +
              std::to_string(cert.merged.bits) + " bits");
  }

  r.attempted += cl.attempted;
  r.failed += cl.failed;
  server->stop();  // joins the producers: their spans are now stable
  for (std::size_t i = 0; i < ledgers.size(); ++i) {
    if (traced) r.source_spans.push_back({round, i, ledgers[i]->spans});
  }
}

PassResult run_pass(const ServedSpec& spec, const Options& opt, bool traced) {
  PassResult r;
  r.run_t0 = now_ns();
  for (int round = 0; round < kRounds; ++round) {
    run_round(spec, opt, traced, round, r);
  }
  std::printf("check %s: %s output checks over %d rounds\n",
              r.correct ? "ok" : "FAILED", spec.name, kRounds);
  return r;
}

void dump_trace(const Options& opt, const PassResult& r) {
  const std::string path = opt.trace_dir + "/" + opt.workload + ".trace.csv";
  std::ofstream out(path);
  if (!out) {
    std::printf("warning: cannot write trace dump %s\n", path.c_str());
    return;
  }
  const std::uint64_t t0 = r.run_t0;
  out << "# perfbench trace: workload=" << opt.workload
      << " seed=" << opt.seed << "; times are ns since pass start\n";
  out << "# client,round,id,conn,send_start,send_end,first_byte,last_byte\n";
  for (const auto& [round, t] : r.traces) {
    out << "client," << round << ',' << t.id << ',' << t.conn << ','
        << t.send_start - t0 << ',' << t.send_end - t0 << ','
        << t.first_byte - t0 << ',' << t.last_byte - t0 << '\n';
  }
  out << "# source.generate,round,producer,start,end,cpu_ns,bits\n";
  for (const PassResult::Spans& ps : r.source_spans) {
    for (const SourceSpan& s : ps.spans) {
      out << "source.generate," << ps.round << ',' << ps.producer << ','
          << s.start_ns - t0 << ',' << s.end_ns - t0 << ',' << s.cpu_ns << ','
          << s.bits << '\n';
    }
  }
  out << "# counters,round,t,bytes_served,responses_ok,epoll_wakeups,"
         "writev_calls,writev_frames,pool_bytes,quarantines,reseeds,retired\n";
  for (const auto& [round, c] : r.counters) {
    out << "counters," << round << ',' << c.t_ns - t0 << ',' << c.bytes_served
        << ',' << c.responses_ok << ',' << c.wakeups << ',' << c.writev_calls
        << ',' << c.writev_frames << ',' << c.pool_bytes << ','
        << c.quarantines << ',' << c.reseeds << ',' << c.retired << '\n';
  }
  std::printf("trace dump: %s (%zu requests)\n", path.c_str(),
              r.traces.size());
}

struct EndToEnd {
  double setup_s = 0.0;
  double served_mbit_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

EndToEnd summarize(const ServedSpec& spec, const PassResult& r,
                   const char* label) {
  EndToEnd e;
  e.setup_s = median(r.setup_s);
  e.served_mbit_s = r.rounds.mbit_s_value();
  e.p50_us = r.rounds.p50_us_value();
  e.p99_us = r.rounds.p99_us_value();
  std::printf("%s %s: served %s; setup median %.6f s of %zu; pool "
              "quarantines %llu; failed_frac %.6f (%llu/%llu)\n",
              spec.name, label, r.rounds.describe("GET").c_str(), e.setup_s,
              r.setup_s.size(), static_cast<unsigned long long>(r.quarantines),
              r.attempted ? static_cast<double>(r.failed) /
                                static_cast<double>(r.attempted)
                          : 0.0,
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  return e;
}

}  // namespace

bool is_served_workload(const std::string& name) {
  return find_spec(name) != nullptr;
}

void run_served(const Options& opt, Result& out) {
  const ServedSpec& spec = *find_spec(opt.workload);
  const PassResult plain = run_pass(spec, opt, /*traced=*/false);
  const double rss_plain = peak_rss_mb();
  out.correct = out.correct && plain.correct;
  out.attempted += plain.attempted;
  out.failed += plain.failed;
  const EndToEnd e = summarize(spec, plain, "untraced");
  if (!opt.trace) {
    out.add("setup_s", e.setup_s, "s");
    out.add("served_mbit_s", e.served_mbit_s, "Mbit/s");
    out.add("get_p50_us", e.p50_us, "us");
    out.add("get_p99_us", e.p99_us, "us");
    out.add("peak_rss_mb", rss_plain, "MB");
    return;
  }

  const PassResult traced = run_pass(spec, opt, /*traced=*/true);
  const double rss_traced = peak_rss_mb();
  out.correct = out.correct && traced.correct;
  out.attempted += traced.attempted;
  out.failed += traced.failed;
  const EndToEnd t = summarize(spec, traced, "traced");
  dump_trace(opt, traced);

  run_layer_ledger(opt.seed, out, nullptr);
  out.add("pool.quarantines", static_cast<double>(traced.quarantines),
          "count");

  const ProducerTotals& p = traced.producer;
  const double wall =
      static_cast<double>(std::max<std::uint64_t>(p.wall_ns, 1));
  const double blocked =
      std::max(0.0, static_cast<double>(p.wall_ns) -
                        static_cast<double>(p.source_cpu_ns + p.other_cpu_ns));
  out.add("producer.source_cpu_frac",
          static_cast<double>(p.source_cpu_ns) / wall, "frac");
  out.add("producer.other_cpu_frac",
          static_cast<double>(p.other_cpu_ns) / wall, "frac");
  out.add("producer.blocked_frac", blocked / wall, "frac");
  out.add("source.gen_ns_per_bit",
          p.bits ? static_cast<double>(p.source_cpu_ns) /
                       static_cast<double>(p.bits)
                 : 0.0,
          "ns/bit");

  std::vector<double> wait_us;
  std::vector<double> recv_us;
  for (const auto& [round, rt] : traced.traces) {
    wait_us.push_back(static_cast<double>(rt.first_byte - rt.send_end) / 1e3);
    recv_us.push_back(static_cast<double>(rt.last_byte - rt.first_byte) / 1e3);
  }
  out.add("client.wait_us_p50", median(wait_us), "us");
  out.add("client.recv_us_p50", median(recv_us), "us");

  const double gets =
      static_cast<double>(std::max<std::uint64_t>(traced.window_gets, 1));
  out.add("service.wakeups_per_get",
          static_cast<double>(traced.window_wakeups) / gets, "wakeup/get");
  out.add("service.frames_per_writev",
          static_cast<double>(traced.window_writev_frames) /
              static_cast<double>(
                  std::max<std::uint64_t>(traced.window_writev_calls, 1)),
          "frames/call");

  out.add("trace_overhead.setup_s", worse_frac(e.setup_s, t.setup_s, false),
          "frac");
  out.add("trace_overhead.served_mbit_s",
          worse_frac(e.served_mbit_s, t.served_mbit_s, true), "frac");
  out.add("trace_overhead.get_p50_us", worse_frac(e.p50_us, t.p50_us, false),
          "frac");
  out.add("trace_overhead.get_p99_us", worse_frac(e.p99_us, t.p99_us, false),
          "frac");
  out.add("trace_overhead.peak_rss_mb",
          worse_frac(rss_plain, rss_traced, false), "frac");
}

}  // namespace perfbench
