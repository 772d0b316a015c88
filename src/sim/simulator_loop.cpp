// The calendar event loop: pop -> apply -> evaluate -> gate delay ->
// schedule -> push, for every due event.
//
// One body (calendar_loop, always inlined) behind two entry points:
//
//   run_calendar      built at the baseline instruction set
//   run_calendar_fma  x86-64 only, [[gnu::target("avx2,fma")]]
//
// Simulator::run_until calls run_calendar_fma on the AVX2 and AVX-512
// dispatch tiers and run_calendar otherwise, so DHTRNG_FORCE_SCALAR and
// force_tier() reach the loop like they reach the noise kernels.  The two
// differ only in how std::fma in EdgeJitterSource::next_delay_fast is
// issued: a libm call at the x86-64 baseline, one instruction in the fma
// entry point.  fma rounds once either way, and this file builds with
// -ffp-contract=off so no other multiply-add is fused, so both apply the
// same events at the same times.  (On aarch64 fma is baseline and
// run_calendar serves every tier.)
//
// Only the fma entry point's own body is built for AVX2 + FMA: whatever
// the compiler leaves out of line — the refills, flip-flop sampling and
// tracing, or at -O0 any inline header function — is the ordinary
// baseline copy, so no caller on any tier can bind to AVX2 code.  The hot
// helpers the loop calls (the queue's push, cancel and pop_if_due, the
// noise sources' per-draw paths, evaluate_gate_flat, schedule and
// friends) are always inlined, so the fma entry point runs them with the
// hardware fma.

#include "sim/simulator.h"

namespace dhtrng::sim {

void Simulator::calendar_loop(double t_ps) {
  SimEvent ev;
  while (cal_.pop_if_due(t_ps, ev)) {
    if (++events_processed_ > config_.max_events) throw_budget_exhausted();
    now_ = ev.time;
    if (trace_applied_) record_applied(ev);
    const NetId net = ev.net;
    const bool value = ev.value;
    if (!commit_change(net, value)) continue;

    const FlatNetlist::NetMeta& m = flat_.net_meta[net];
    // Clock source nets regenerate their own next edge.
    if (m.clock >= 0) {
      const ClockSpec& c =
          circuit_.clocks()[static_cast<std::size_t>(m.clock)];
      const double high = c.period_ps * c.duty;
      schedule<Scheduler::Calendar>(net, !value,
                                    value ? high : c.period_ps - high);
    }
    // Rising clock edge: sample every flip-flop on this clock.
    if (value && m.dff_begin != m.dff_end) {
      sample_dffs<Scheduler::Calendar>(m);
    }
    // CSR fanout, allocation-free gate evaluation, one merged metadata
    // record per gate.
    const std::uint8_t* values = value_.data();
    const NetId* ins = flat_.gate_in.data();
    for (std::uint32_t o = m.fanout_begin; o < m.fanout_end; ++o) {
      const std::uint32_t g = flat_.fanout[o];
      const FlatNetlist::GateMeta& gm = flat_.gate_meta[g];
      const bool out = evaluate_gate_flat(gm.kind, values, ins + gm.in_begin,
                                          gm.in_end - gm.in_begin);
      schedule<Scheduler::Calendar>(gm.output, out, gate_delay_with_jitter(g));
    }
  }
}

void Simulator::run_calendar(double t_ps) { calendar_loop(t_ps); }

#if defined(__x86_64__) || defined(_M_X64)
void Simulator::run_calendar_fma(double t_ps) { calendar_loop(t_ps); }
#endif

}  // namespace dhtrng::sim
