// Event-driven timing simulator with stochastic gate delays.
//
// This engine is the substitute for the paper's physical FPGA fabric: each
// gate transition is perturbed by an EdgeJitterSource (white + flicker +
// shared-supply noise) and each flip-flop applies the Eq. 2 aperture model
// on sampling, so jitter- and metastability-based entropy arise from the
// same mechanisms the paper exploits, only with pseudo-random noise driving
// them (see DESIGN.md, substitution table).
//
// Delays are in picoseconds; the schedule is a strict total order on
// (time, seq) — nondecreasing time, insertion order on ties — so a given
// (circuit, config, seed) triple always reproduces the same waveforms.
//
// Two interchangeable schedulers implement that order:
//
//  * Scheduler::Calendar (default) — a calendar/bucket queue over one
//    flat slot arena (event_queue.h), driving gate evaluation through the
//    contiguous CSR netlist view built once at elaboration
//    (flat_netlist.h) and per-gate noise sources sampled in blocks.  This
//    is the production engine.  Its event loop (simulator_loop.cpp) has
//    a baseline and an AVX2 + FMA entry point, picked by
//    support::simd::active_tier(), so the fast-noise delay fma is one
//    instruction on the AVX2/AVX-512 tiers and a libm call on the x86-64
//    scalar tier — the same rounding either way, so every tier applies
//    the same events at the same times.
//  * Scheduler::ReferenceHeap — the original binary-heap scheduler with
//    per-event allocation, kept as a slow oracle.  Both schedulers are
//    waveform-identical event for event; tests/sim/test_differential_fuzz
//    and the golden digests in tests/sim/test_golden_waveforms enforce it.
#pragma once

#include <cstdint>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

#include "noise/jitter.h"
#include "noise/pvt.h"
#include "sim/circuit.h"
#include "sim/event_queue.h"
#include "sim/flat_netlist.h"
#include "support/rng.h"

namespace dhtrng::sim {

enum class Scheduler { Calendar, ReferenceHeap };

struct SimConfig {
  std::uint64_t seed = 1;
  /// Base per-gate jitter at the nominal corner; the white component scales
  /// with sqrt(delay / 100ps) per gate so longer cells jitter more.
  noise::JitterParams gate_jitter{1.2, 0.5, 0.4};
  /// PVT scale factors (from noise::pvt_scaling via the device model).
  noise::PvtScaling scaling{1.0, 1.0, 1.0};
  /// Pulses narrower than this are swallowed (inertial delay model).
  double min_pulse_ps = 5.0;
  /// Hard stop against runaway zero-delay loops.
  std::uint64_t max_events = 500'000'000;
  /// Event engine selection; see the header comment.
  Scheduler scheduler = Scheduler::Calendar;
  /// Block size for the per-gate white/flicker noise draws (<= 1 draws per
  /// event).  Any value yields bit-identical waveforms.
  std::size_t noise_batch = 64;
  /// Noise fidelity (see noise::NoiseMode).  Exact is the default and the
  /// only mode the golden-waveform digests apply to; Fast swaps the
  /// per-gate jitter for SIMD-batched pre-combined delay blocks — still
  /// deterministic per (seed, mode) and identical across dispatch tiers,
  /// but a different stream, intended for bulk generation and perf runs.
  noise::NoiseMode noise_mode = noise::NoiseMode::Exact;
};

/// Structured runaway-guard error: thrown when the event count exceeds
/// SimConfig::max_events.  Carries enough context to diagnose the loop —
/// how far simulated time got, how many events were processed, and which
/// net toggled most (in a zero-delay loop, the culprit).
class BudgetExhaustedError : public std::runtime_error {
 public:
  BudgetExhaustedError(double sim_time_ps, std::uint64_t events,
                       NetId hottest_net, std::uint64_t hottest_net_toggles,
                       const std::string& hottest_net_name);

  double sim_time_ps() const { return sim_time_ps_; }
  std::uint64_t events() const { return events_; }
  NetId hottest_net() const { return hottest_net_; }
  std::uint64_t hottest_net_toggles() const { return hottest_net_toggles_; }

 private:
  double sim_time_ps_;
  std::uint64_t events_;
  NetId hottest_net_;
  std::uint64_t hottest_net_toggles_;
};

class Simulator {
 public:
  Simulator(const Circuit& circuit, SimConfig config);

  /// Advance simulated time to t_ps (events at exactly t_ps included).
  void run_until(double t_ps);

  /// Current simulated time (ps).
  double now() const { return now_; }

  bool net_value(NetId id) const { return value_[id]; }
  double last_change_ps(NetId id) const { return last_change_[id]; }

  /// Start recording the sampled bit of a flip-flop at every clock edge.
  void record_dff(std::size_t dff_index);
  /// Recorded samples of a flip-flop not yet released by next_sample().
  const std::vector<std::uint8_t>& samples(std::size_t dff_index) const;

  /// Read the next recorded sample of a recorded flip-flop, advancing
  /// simulated time in steps of `step_ps` until one exists.  Once every
  /// buffered sample has been read the buffer is released, so a streaming
  /// reader holds only the samples of its last step, not its whole history.
  bool next_sample(std::size_t dff_index, double step_ps);

  /// Recorded samples currently buffered, over all flip-flops.
  std::size_t buffered_samples() const;

  /// Start recording rising-edge timestamps of a net (for period/jitter
  /// analysis of oscillator nodes).
  void record_edges(NetId net);
  const std::vector<double>& edge_times(NetId net) const;

  /// Start recording every applied event as (time, seq, net, value) — the
  /// observable the differential fuzzer compares across schedulers.
  void record_applied_events() { trace_applied_ = true; }
  const std::vector<SimEvent>& applied_events() const {
    return applied_events_;
  }

  std::uint64_t toggle_count(NetId id) const { return toggles_[id]; }
  std::uint64_t total_toggles() const;
  std::uint64_t events_processed() const { return events_processed_; }
  /// Number of flip-flop samples that fell inside the metastability
  /// aperture (a health indicator the hybrid unit deliberately maximizes).
  std::uint64_t metastable_samples() const { return metastable_samples_; }
  std::uint64_t dff_sample_count(std::size_t dff_index) const {
    return sample_counts_[dff_index];
  }
  /// Pulses swallowed by the inertial (min_pulse) filter — a glitch-rate
  /// diagnostic for netlists with reconvergent paths.
  std::uint64_t runts_filtered() const { return runts_filtered_; }

  /// Calendar-queue introspection (diagnostics / tests).
  double queue_width_ps() const { return cal_.bucket_width_ps(); }
  std::size_t queue_buckets() const { return cal_.bucket_count(); }
  std::size_t queue_live() const { return cal_.live(); }
  std::size_t queue_stored() const { return cal_.stored(); }

 private:
  struct Event {
    double time;
    std::uint64_t seq;
    NetId net;
    bool value;
    bool operator>(const Event& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  static constexpr double kMinDelayPs = 0.1;

  // Hot helpers of the calendar loop, also used by the baseline code.
  // Always inlined, so the loop's fma entry point runs them with the
  // hardware fma; what they call out of line (record_edge, the queue's
  // and the noise sources' refills) is built once at the baseline.

  /// Schedule `net` to take `value` `delay_from_now` ps ahead through
  /// scheduler S, after the per-net causal-ordering clamp and the
  /// inertial runt filter.
  template <Scheduler S>
  [[gnu::always_inline]] void schedule(NetId net, bool value,
                                       double delay_from_now) {
    double t = now_ + delay_from_now;
    NetSched& s = sched_[net];
    // Per-net causal ordering: a later-issued transition may not overtake
    // an earlier one (jitter could otherwise reorder them).
    if (t <= s.time) t = s.time + kMinDelayPs;

    const bool pending = s.time > now_;
    if (pending && (s.projected != 0) != value && value == (value_[net] != 0) &&
        t - s.time < config_.min_pulse_ps) {
      // Runt pulse: the pending transition would be undone before it
      // could propagate a full pulse width; swallow both (inertial delay).
      if constexpr (S == Scheduler::Calendar) {
        cal_.cancel(s.time, s.seq);
      } else {
        dead_events_.push_back(s.seq);
      }
      s.projected = value_[net];
      s.time = now_;
      ++runts_filtered_;
      return;
    }
    if ((s.projected != 0) == value) return;  // no change to project

    s.projected = value ? 1 : 0;
    s.time = t;
    s.seq = ++seq_;
    if constexpr (S == Scheduler::Calendar) {
      cal_.push(t, seq_, net, value);
    } else {
      queue_.push(Event{t, seq_, net, value});
    }
  }

  [[gnu::always_inline]] double gate_delay_with_jitter(std::size_t gate_index) {
    if (fast_noise_) return gate_noise_[gate_index].next_delay_fast();
    const double nominal =
        flat_.gate_delay_ps[gate_index] * config_.scaling.delay;
    const double jitter =
        gate_noise_[gate_index].next_edge_jitter(config_.scaling);
    const double d = nominal + jitter;
    return d < kMinDelayPs ? kMinDelayPs : d;
  }

  /// Set `net` to `value` and do the per-net bookkeeping; false (and
  /// nothing done) when the net already has that value.
  [[gnu::always_inline]] bool commit_change(NetId net, bool value) {
    if ((value_[net] != 0) == value) return false;
    value_[net] = value ? 1 : 0;
    last_change_[net] = now_;
    ++toggles_[net];
    if (value && edge_recorded_[net]) record_edge(net);
    return true;
  }

  /// The calendar event loop (simulator_loop.cpp): one always-inlined
  /// body, entered at the baseline instruction set or, on x86-64, with
  /// AVX2 + FMA for the vector dispatch tiers.
  [[gnu::always_inline]] inline void calendar_loop(double t_ps);
  void run_calendar(double t_ps);
#if defined(__x86_64__) || defined(_M_X64)
  [[gnu::target("avx2,fma")]] void run_calendar_fma(double t_ps);
#endif
  void run_until_reference(double t_ps);
  void apply_net_change_reference(NetId net, bool value);
  /// Sample every flip-flop clocked by a net that just rose.
  template <Scheduler S>
  void sample_dffs(const FlatNetlist::NetMeta& m);
  void schedule_initial(NetId net, bool value, double delay_from_now);
  void record_edge(NetId net);
  void record_applied(const SimEvent& ev);
  [[noreturn]] void throw_budget_exhausted();

  const Circuit& circuit_;
  SimConfig config_;
  FlatNetlist flat_;  ///< contiguous netlist view, built once at elaboration
  bool fast_noise_ = false;  ///< config_.noise_mode == Fast, hoisted
  double now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t metastable_samples_ = 0;
  std::uint64_t runts_filtered_ = 0;

  /// Per-net scheduling state, merged into one record so the runt filter
  /// and push bookkeeping in schedule() touch a single cache line.
  struct NetSched {
    double time = -1.0;          ///< last scheduled transition time
    std::uint64_t seq = 0;       ///< its push sequence number
    std::uint8_t projected = 0;  ///< net value after pending events
  };

  std::vector<std::uint8_t> value_;  // current net values (dense, gate eval)
  std::vector<NetSched> sched_;
  std::vector<double> last_change_;
  std::vector<std::uint64_t> toggles_;

  // Calendar engine: bucket queue; the runt filter cancels by the
  // (time, seq) key of a net's latest scheduled event, which sched_
  // already tracks.
  CalendarQueue cal_;

  // Reference engine: the historical binary heap and cancelled-seq list.
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  std::vector<std::uint64_t> dead_events_;

  noise::SharedSupplyNoise shared_noise_;
  std::vector<noise::EdgeJitterSource> gate_noise_;  // one per gate
  support::Xoshiro256 meta_rng_;                     // metastable resolution

  std::vector<std::vector<std::uint8_t>> dff_samples_;
  std::vector<std::size_t> dff_read_;  ///< next_sample() cursor per DFF
  std::vector<std::uint8_t> dff_recorded_;
  std::vector<std::uint64_t> sample_counts_;

  std::vector<std::uint8_t> edge_recorded_;
  std::vector<std::vector<double>> edge_times_;

  bool trace_applied_ = false;
  std::vector<SimEvent> applied_events_;
};

}  // namespace dhtrng::sim
