#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "support/simd_noise.h"
#include "support/special_functions.h"

namespace dhtrng::sim {

namespace {
constexpr double kReferenceDelayPs = 100.0;

/// Calendar bucket width: the median scheduled delay puts the typical
/// event one bucket ahead of now, so most pops scan a single short
/// bucket.  Clock-only circuits fall back to the half-period; the queue's
/// rotation fallback covers sparse schedules either way.
double pick_bucket_width(const Circuit& circuit, const SimConfig& config) {
  std::vector<double> delays;
  delays.reserve(circuit.gates().size());
  for (const Gate& g : circuit.gates()) {
    delays.push_back(g.delay_ps * config.scaling.delay);
  }
  if (delays.empty()) {
    for (const ClockSpec& c : circuit.clocks()) {
      delays.push_back(c.period_ps * 0.5);
    }
  }
  if (delays.empty()) return 100.0;
  const auto mid = delays.begin() + static_cast<std::ptrdiff_t>(delays.size() / 2);
  std::nth_element(delays.begin(), mid, delays.end());
  return std::clamp(*mid, 1.0, 5000.0);
}

std::string budget_message(double sim_time_ps, std::uint64_t events,
                           std::uint64_t hottest_net_toggles,
                           const std::string& hottest_net_name) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "Simulator: event budget exhausted at t=%.1f ps after %llu "
                "events; hottest net '%s' (%llu toggles)",
                sim_time_ps, static_cast<unsigned long long>(events),
                hottest_net_name.c_str(),
                static_cast<unsigned long long>(hottest_net_toggles));
  return buf;
}
}  // namespace

BudgetExhaustedError::BudgetExhaustedError(
    double sim_time_ps, std::uint64_t events, NetId hottest_net,
    std::uint64_t hottest_net_toggles, const std::string& hottest_net_name)
    : std::runtime_error(budget_message(sim_time_ps, events,
                                        hottest_net_toggles,
                                        hottest_net_name)),
      sim_time_ps_(sim_time_ps),
      events_(events),
      hottest_net_(hottest_net),
      hottest_net_toggles_(hottest_net_toggles) {}

Simulator::Simulator(const Circuit& circuit, SimConfig config)
    : circuit_(circuit),
      config_(config),
      flat_(FlatNetlist::build(circuit)),
      value_(circuit.net_count(), 0),
      sched_(circuit.net_count()),
      last_change_(circuit.net_count(), -1e18),
      toggles_(circuit.net_count(), 0),
      cal_(pick_bucket_width(circuit, config)),
      shared_noise_(config.gate_jitter.correlated_sigma_ps,
                    config.seed ^ 0xabcdef1234567890ULL),
      meta_rng_(config.seed ^ 0x5bd1e995cafef00dULL),
      dff_samples_(circuit.dffs().size()),
      dff_read_(circuit.dffs().size(), 0),
      dff_recorded_(circuit.dffs().size(), 0),
      sample_counts_(circuit.dffs().size(), 0),
      edge_recorded_(circuit.net_count(), 0),
      edge_times_(circuit.net_count()) {
  circuit.validate();

  const auto& initial = circuit.initial_values();
  for (std::size_t n = 0; n < value_.size(); ++n) {
    value_[n] = initial[n] ? 1 : 0;
    sched_[n].projected = value_[n];
  }

  // The shared AR(1) supply trajectory batches the same way as the
  // per-source draws (its value stream is private to its own RNG; the
  // cross-source call order only decides who receives each value).
  shared_noise_.set_batch(config.noise_batch);

  support::SplitMix64 seeder(config.seed);
  gate_noise_.reserve(circuit.gates().size());
  for (std::size_t g = 0; g < circuit.gates().size(); ++g) {
    // Longer cells accumulate more noise: white sigma ~ sqrt(delay).
    noise::JitterParams p = config.gate_jitter;
    p.white_sigma_ps *=
        std::sqrt(circuit.gates()[g].delay_ps / kReferenceDelayPs);
    gate_noise_.emplace_back(p, seeder.next(), &shared_noise_);
    gate_noise_.back().set_batch(config.noise_batch);
  }

  fast_noise_ = config.noise_mode == noise::NoiseMode::Fast;
  if (fast_noise_) {
    shared_noise_.set_mode(noise::NoiseMode::Fast);
    for (std::size_t g = 0; g < gate_noise_.size(); ++g) {
      // Complete delays are precomputed per block: nominal (PVT-scaled)
      // base plus white+flicker, clamped at consumption to the same floor
      // the exact path applies.
      gate_noise_[g].enable_fast_delay(
          flat_.gate_delay_ps[g] * config.scaling.delay, kMinDelayPs,
          config.scaling);
    }
  }

  // Kick-start: schedule first clock edges and settle gates whose output
  // disagrees with the initial net values (this is what makes inverter
  // rings begin to oscillate).
  for (const ClockSpec& c : circuit.clocks()) {
    schedule_initial(c.net, true, std::max(c.offset_ps, kMinDelayPs));
  }
  for (std::size_t g = 0; g < circuit.gates().size(); ++g) {
    const std::uint32_t lo = flat_.gate_in_off[g];
    const bool out =
        evaluate_gate_flat(flat_.gate_kind[g], value_.data(),
                           flat_.gate_in.data() + lo,
                           flat_.gate_in_off[g + 1] - lo);
    if (out != (value_[flat_.gate_output[g]] != 0)) {
      schedule_initial(flat_.gate_output[g], out, gate_delay_with_jitter(g));
    }
  }
}

void Simulator::schedule_initial(NetId net, bool value,
                                 double delay_from_now) {
  if (config_.scheduler == Scheduler::Calendar) {
    schedule<Scheduler::Calendar>(net, value, delay_from_now);
  } else {
    schedule<Scheduler::ReferenceHeap>(net, value, delay_from_now);
  }
}

void Simulator::run_until(double t_ps) {
  using support::simd::Tier;
  if (config_.scheduler == Scheduler::Calendar) {
    switch (support::simd::active_tier()) {
#if defined(__x86_64__) || defined(_M_X64)
      case Tier::Avx512:  // every AVX-512 tier host also has AVX2 + FMA
      case Tier::Avx2:
        run_calendar_fma(t_ps);
        break;
#endif
      default:  // Scalar; on aarch64 also Neon (fma is baseline there)
        run_calendar(t_ps);
        break;
    }
  } else {
    run_until_reference(t_ps);
  }
  now_ = std::max(now_, t_ps);
}

void Simulator::run_until_reference(double t_ps) {
  while (!queue_.empty() && queue_.top().time <= t_ps) {
    const Event ev = queue_.top();
    queue_.pop();
    if (!dead_events_.empty()) {
      const auto it =
          std::find(dead_events_.begin(), dead_events_.end(), ev.seq);
      if (it != dead_events_.end()) {
        dead_events_.erase(it);
        continue;
      }
    }
    if (++events_processed_ > config_.max_events) throw_budget_exhausted();
    now_ = ev.time;
    if (trace_applied_) {
      record_applied(SimEvent{ev.time, ev.seq, ev.net, ev.value});
    }
    apply_net_change_reference(ev.net, ev.value);
  }
}

void Simulator::record_applied(const SimEvent& ev) {
  applied_events_.push_back(ev);
}

void Simulator::record_edge(NetId net) { edge_times_[net].push_back(now_); }

void Simulator::throw_budget_exhausted() {
  NetId hottest = 0;
  for (NetId n = 1; n < static_cast<NetId>(toggles_.size()); ++n) {
    if (toggles_[n] > toggles_[hottest]) hottest = n;
  }
  const std::uint64_t hot_toggles = toggles_.empty() ? 0 : toggles_[hottest];
  throw BudgetExhaustedError(now_, events_processed_, hottest, hot_toggles,
                             toggles_.empty() ? std::string("<none>")
                                              : circuit_.net_name(hottest));
}

void Simulator::apply_net_change_reference(NetId net, bool value) {
  if (!commit_change(net, value)) return;
  const FlatNetlist::NetMeta& m = flat_.net_meta[net];

  // The reference oracle keeps the historical linear clock scan...
  for (const ClockSpec& c : circuit_.clocks()) {
    if (c.net == net) {
      const double high = c.period_ps * c.duty;
      schedule<Scheduler::ReferenceHeap>(net, !value,
                                         value ? high : c.period_ps - high);
      break;
    }
  }
  if (value) sample_dffs<Scheduler::ReferenceHeap>(m);
  // ...and the historical per-event-allocating evaluation, retained
  // unchanged as the baseline the microbench measures against.
  for (std::uint32_t o = m.fanout_begin; o < m.fanout_end; ++o) {
    const std::uint32_t g = flat_.fanout[o];
    const Gate& gate = circuit_.gates()[g];
    std::vector<bool> ins(gate.inputs.size());
    for (std::size_t i = 0; i < gate.inputs.size(); ++i) {
      ins[i] = value_[gate.inputs[i]] != 0;
    }
    schedule<Scheduler::ReferenceHeap>(gate.output,
                                       evaluate_gate(gate.kind, ins),
                                       gate_delay_with_jitter(g));
  }
}

template <Scheduler S>
void Simulator::sample_dffs(const FlatNetlist::NetMeta& m) {
  for (std::uint32_t d = m.dff_begin; d < m.dff_end; ++d) {
    const std::uint32_t f = flat_.dff_by_clk[d];
    const Dff& ff = circuit_.dffs()[f];
    const bool d_now = value_[ff.d] != 0;
    const double delta = now_ - last_change_[ff.d];
    const double sigma = ff.timing.aperture_sigma_ps *
                         std::max(config_.scaling.delay, 1e-9);
    bool captured = d_now;
    double extra = 0.0;
    if (delta < 4.0 * sigma) {
      // Eq. 2: the probability of capturing the post-transition value is
      // the normal CDF of the (scaled) distance to the sampling edge.
      const double p_new = support::normal_cdf(delta / sigma);
      captured = meta_rng_.bernoulli(p_new) ? d_now : !d_now;
      extra = meta_rng_.exponential(ff.timing.resolution_mean_ps);
      ++metastable_samples_;
    }
    if (dff_recorded_[f]) {
      dff_samples_[f].push_back(captured ? 1 : 0);
    }
    ++sample_counts_[f];
    schedule<S>(ff.q, captured,
                ff.timing.clk_to_q_ps * config_.scaling.delay + extra);
  }
}

template void Simulator::sample_dffs<Scheduler::Calendar>(
    const FlatNetlist::NetMeta&);
template void Simulator::sample_dffs<Scheduler::ReferenceHeap>(
    const FlatNetlist::NetMeta&);

void Simulator::record_dff(std::size_t dff_index) {
  dff_recorded_.at(dff_index) = 1;
}

void Simulator::record_edges(NetId net) { edge_recorded_.at(net) = 1; }

const std::vector<double>& Simulator::edge_times(NetId net) const {
  return edge_times_.at(net);
}

const std::vector<std::uint8_t>& Simulator::samples(
    std::size_t dff_index) const {
  return dff_samples_.at(dff_index);
}

bool Simulator::next_sample(std::size_t dff_index, double step_ps) {
  if (dff_recorded_.at(dff_index) == 0) {
    throw std::logic_error("next_sample on a flip-flop that is not recorded");
  }
  std::vector<std::uint8_t>& buf = dff_samples_[dff_index];
  std::size_t& read = dff_read_[dff_index];
  if (read == buf.size()) {
    // Everything buffered has been read: release it (capacity is kept, so
    // the steady state allocates nothing) and step until a sample lands.
    buf.clear();
    read = 0;
    while (buf.empty()) run_until(now_ + step_ps);
  }
  return buf[read++] != 0;
}

std::size_t Simulator::buffered_samples() const {
  std::size_t total = 0;
  for (const auto& buf : dff_samples_) total += buf.size();
  return total;
}

std::uint64_t Simulator::total_toggles() const {
  std::uint64_t total = 0;
  for (std::uint64_t t : toggles_) total += t;
  return total;
}

}  // namespace dhtrng::sim
