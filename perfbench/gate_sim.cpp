// gate_sim: the gate-level DH-TRNG (event-driven simulator, fast noise)
// driven through TrngSource::generate by one thread — the path of
// `trng_tool generate --backend=gate`.  Each call asks for one 32-bit
// word; the call's duration is the workload's GET latency.
#include <cstring>
#include <fstream>

#include "core/dhtrng.h"
#include "stats/health.h"
#include "support/sha256.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Bits in the pinned stream prefix whose SHA-256 and event count are
/// reported, so two builds can be compared exactly.
constexpr std::size_t kPrefixBits = 4096;
constexpr std::size_t kCallBits = 32;

dhtrng::core::DhTrngConfig gate_config(std::uint64_t seed) {
  dhtrng::core::DhTrngConfig c;
  c.seed = derive_seed(seed, 2);
  c.backend = dhtrng::core::Backend::GateLevel;
  c.noise_mode = dhtrng::noise::NoiseMode::Fast;
  return c;
}

/// A pass: kRounds rounds, each on a fresh generator of the same seed.
struct GatePass {
  bool correct = true;
  std::uint64_t calls = 0;
  std::vector<double> setup_s;
  RoundSeries rounds;  ///< latency = one generate() call
  std::vector<double> check_us;  ///< per-call RCT/APT + hashing time
  std::uint64_t source_cpu_ns = 0;
  std::uint64_t other_cpu_ns = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t bits = 0;
  std::vector<SourceSpan> spans;
  std::string prefix_sha;
  std::uint64_t prefix_events = 0;
  std::uint64_t run_t0 = 0;
};

/// Consumes the generated stream: RCT/APT over every bit, SHA-256 and
/// event count over the first kPrefixBits.
class StreamCheck {
 public:
  explicit StreamCheck(const dhtrng::core::DhTrng& trng) : trng_(trng) {}

  void consume(const dhtrng::support::BitStream& bits) {
    const auto words = bits.words();
    std::size_t left = bits.size();
    for (std::uint64_t w : words) {
      const std::size_t n = std::min<std::size_t>(left, 64);
      monitor_.feed_word(w, n);
      left -= n;
    }
    for (std::size_t i = 0; i < bits.size() && prefix_.size() < kPrefixBits;
         ++i) {
      prefix_.push_back(bits[i]);
      if (prefix_.size() == kPrefixBits) finish_prefix();
    }
  }

  bool healthy() const { return monitor_.healthy(); }
  bool prefix_done() const { return prefix_.size() == kPrefixBits; }
  const std::string& prefix_sha() const { return prefix_sha_; }
  std::uint64_t prefix_events() const { return prefix_events_; }

 private:
  void finish_prefix() {
    prefix_events_ = trng_.simulator()->events_processed();
    std::vector<std::uint8_t> bytes(kPrefixBits / 8);
    std::memcpy(bytes.data(), prefix_.words().data(), bytes.size());
    prefix_sha_ = dhtrng::support::Sha256::hex(
        dhtrng::support::Sha256::hash(bytes));
  }

  const dhtrng::core::DhTrng& trng_;
  dhtrng::stats::HealthMonitor monitor_{kCheckMinEntropy};
  dhtrng::support::BitStream prefix_;
  std::string prefix_sha_;
  std::uint64_t prefix_events_ = 0;
};

void run_gate_round(const Options& opt, bool traced, int round, GatePass& r) {
  std::unique_ptr<dhtrng::core::DhTrng> trng;
  dhtrng::support::BitStream chunk;
  for (int s = 0; s < kSetupsPerRound; ++s) {
    trng.reset();
    chunk.clear();
    const std::uint64_t t0 = now_ns();
    trng = std::make_unique<dhtrng::core::DhTrng>(gate_config(opt.seed));
    trng->generate(chunk, 1);
    r.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  StreamCheck check(*trng);
  check.consume(chunk);
  // Re-align to whole words: the set-up drew one bit.
  chunk.clear();
  trng->generate(chunk, kCallBits - 1);
  check.consume(chunk);
  r.calls += 2;

  std::uint64_t bits = 0;
  Reservoir call_us(derive_seed(opt.seed, 16 + static_cast<unsigned>(round)));
  const auto call = [&](bool record) {
    chunk.clear();
    const std::uint64_t cpu0 = traced ? thread_cpu_ns() : 0;
    const std::uint64_t t0 = now_ns();
    trng->generate(chunk, kCallBits);
    const std::uint64_t t1 = now_ns();
    const std::uint64_t cpu1 = traced ? thread_cpu_ns() : 0;
    check.consume(chunk);
    const std::uint64_t t2 = now_ns();
    ++r.calls;
    if (!record) return;
    bits += kCallBits;
    call_us.add(static_cast<double>(t1 - t0) / 1e3);
    if (traced) {
      r.source_cpu_ns += cpu1 - cpu0;
      r.check_us.push_back(static_cast<double>(t2 - t1) / 1e3);
      r.spans.push_back({t0, t1, cpu1 - cpu0, kCallBits});
    }
  };

  const double warmup_s = round == 0 ? kFirstWarmupSeconds : kWarmupSeconds;
  const std::uint64_t warm_end =
      now_ns() + static_cast<std::uint64_t>(warmup_s * 1e9);
  while (now_ns() < warm_end || !check.prefix_done()) call(false);

  const std::uint64_t cpu_start = traced ? thread_cpu_ns() : 0;
  const std::uint64_t source_cpu_start = r.source_cpu_ns;
  const std::uint64_t t_start = now_ns();
  const std::uint64_t t_end_due =
      t_start + static_cast<std::uint64_t>(opt.seconds / kRounds * 1e9);
  while (now_ns() < t_end_due) call(true);
  const std::uint64_t t_end = now_ns();
  if (traced) {
    r.wall_ns += t_end - t_start;
    r.other_cpu_ns += thread_cpu_ns() - cpu_start -
                      (r.source_cpu_ns - source_cpu_start);
  }
  r.bits += bits;
  r.rounds.add_round(static_cast<double>(bits) /
                         (static_cast<double>(t_end - t_start) / 1e9) / 1e6,
                     call_us);

  if (!check.healthy()) {
    std::printf("check FAILED: gate_sim RCT/APT alarm on the stream\n");
    r.correct = false;
  }
  if (r.prefix_sha.empty()) {
    r.prefix_sha = check.prefix_sha();
    r.prefix_events = check.prefix_events();
  } else if (r.prefix_sha != check.prefix_sha() ||
             r.prefix_events != check.prefix_events()) {
    std::printf("check FAILED: gate_sim rounds of one seed disagree on the "
                "stream prefix\n");
    r.correct = false;
  }
}

GatePass run_gate_pass(const Options& opt, bool traced) {
  GatePass r;
  r.run_t0 = now_ns();
  for (int round = 0; round < kRounds; ++round) {
    run_gate_round(opt, traced, round, r);
  }
  if (r.bits == 0) {
    std::printf("check FAILED: gate_sim generated no bits in the window\n");
    r.correct = false;
  }
  std::printf("check %s: gate_sim RCT/APT over every round's stream, rounds "
              "agree on the prefix\n", r.correct ? "ok" : "FAILED");
  std::printf("gate_sim stream: first %zu bits sha256 %s, events_processed "
              "%llu at that point (seed %llu)\n",
              kPrefixBits, r.prefix_sha.c_str(),
              static_cast<unsigned long long>(r.prefix_events),
              static_cast<unsigned long long>(opt.seed));
  return r;
}

/// Writes the traced pass's spans: one line per generate() call with its
/// wall span, CPU time and the duration of the checks that followed it.
void dump_trace(const Options& opt, const GatePass& r) {
  const std::string path = opt.trace_dir + "/" + opt.workload + ".trace.csv";
  std::ofstream out(path);
  if (!out) {
    std::printf("warning: cannot write trace dump %s\n", path.c_str());
    return;
  }
  out << "# perfbench trace: workload=" << opt.workload << " seed=" << opt.seed
      << "; times are ns since pass start\n";
  out << "# source.generate,call,start,end,cpu_ns,bits,check_ns\n";
  for (std::size_t i = 0; i < r.spans.size(); ++i) {
    const SourceSpan& s = r.spans[i];
    out << "source.generate," << i << ',' << s.start_ns - r.run_t0 << ','
        << s.end_ns - r.run_t0 << ',' << s.cpu_ns << ',' << s.bits << ','
        << static_cast<std::uint64_t>(r.check_us[i] * 1e3) << '\n';
  }
  std::printf("trace dump: %s (%zu generate calls)\n", path.c_str(),
              r.spans.size());
}

}  // namespace

void run_gate_sim(const Options& opt, Result& out) {
  const GatePass plain = run_gate_pass(opt, false);
  const double rss_plain = peak_rss_mb();
  out.correct = out.correct && plain.correct;
  out.attempted += plain.calls;
  const double setup = median(plain.setup_s);
  std::printf("gate_sim untraced: sim_kbit_s %.4f kbit/s; %s; setup median "
              "%.6f s of %zu; failed_frac 0 (0/%llu)\n",
              plain.rounds.mbit_s_value() * 1e3,
              plain.rounds.describe("generate(32)").c_str(), setup,
              plain.setup_s.size(),
              static_cast<unsigned long long>(plain.calls));
  if (!opt.trace) {
    out.add("setup_s", setup, "s");
    out.add("served_mbit_s", plain.rounds.mbit_s_value(), "Mbit/s");
    out.add("get_p50_us", plain.rounds.p50_us_value(), "us");
    out.add("get_p99_us", plain.rounds.p99_us_value(), "us");
    out.add("peak_rss_mb", rss_plain, "MB");
    return;
  }

  const GatePass traced = run_gate_pass(opt, true);
  const double rss_traced = peak_rss_mb();
  out.correct = out.correct && traced.correct;
  out.attempted += traced.calls;
  if (traced.prefix_sha != plain.prefix_sha ||
      traced.prefix_events != plain.prefix_events) {
    out.fail_check("gate_sim traced and untraced passes disagree on the "
                   "stream prefix");
  }
  const double t_setup = median(traced.setup_s);
  std::printf("gate_sim traced: sim_kbit_s %.4f kbit/s; %s; setup median "
              "%.6f s\n",
              traced.rounds.mbit_s_value() * 1e3,
              traced.rounds.describe("generate(32)").c_str(), t_setup);
  dump_trace(opt, traced);

  std::uint64_t pool_quarantines = 0;
  run_layer_ledger(opt.seed, out, &pool_quarantines);
  out.add("pool.quarantines", static_cast<double>(pool_quarantines), "count");

  // The driver thread is this workload's only producer: source time is
  // CPU inside generate(), other time the stream checks around it.
  const double wall =
      static_cast<double>(std::max<std::uint64_t>(traced.wall_ns, 1));
  const double cpu =
      static_cast<double>(traced.source_cpu_ns + traced.other_cpu_ns);
  out.add("producer.source_cpu_frac",
          static_cast<double>(traced.source_cpu_ns) / wall, "frac");
  out.add("producer.other_cpu_frac",
          static_cast<double>(traced.other_cpu_ns) / wall, "frac");
  out.add("producer.blocked_frac", std::max(0.0, wall - cpu) / wall, "frac");
  out.add("source.gen_ns_per_bit",
          static_cast<double>(traced.source_cpu_ns) /
              static_cast<double>(std::max<std::uint64_t>(traced.bits, 1)),
          "ns/bit");
  // No socket here: "wait" is the generate() call, "recv" the checks on
  // the returned word, and the service layer is absent.
  out.add("client.wait_us_p50", traced.rounds.p50_us_value(), "us");
  out.add("client.recv_us_p50", median(traced.check_us), "us");
  out.add("service.wakeups_per_get", 0.0, "wakeup/get");
  out.add("service.frames_per_writev", 0.0, "frames/call");

  out.add("trace_overhead.setup_s", worse_frac(setup, t_setup, false), "frac");
  out.add("trace_overhead.served_mbit_s",
          worse_frac(plain.rounds.mbit_s_value(),
                     traced.rounds.mbit_s_value(), true),
          "frac");
  out.add("trace_overhead.get_p50_us",
          worse_frac(plain.rounds.p50_us_value(),
                     traced.rounds.p50_us_value(), false),
          "frac");
  out.add("trace_overhead.get_p99_us",
          worse_frac(plain.rounds.p99_us_value(),
                     traced.rounds.p99_us_value(), false),
          "frac");
  out.add("trace_overhead.peak_rss_mb",
          worse_frac(rss_plain, rss_traced, false), "frac");
}

}  // namespace perfbench
