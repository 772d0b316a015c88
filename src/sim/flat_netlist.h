// Contiguous (struct-of-arrays / CSR) view of a Circuit, built once at
// elaboration time.
//
// The Circuit API optimizes for construction convenience: gates hold their
// input lists in per-gate vectors, fanout is implicit, clocks are a list to
// scan.  The simulator's hot loop wants the opposite — flat arrays it can
// stream through without pointer chasing or per-event allocation — so the
// constructor flattens everything once:
//
//   * gate kind / delay / output as parallel arrays,
//   * gate input nets and per-net fanout gate lists in CSR form
//     (offsets + one flat array),
//   * flip-flops indexed by their clock net in CSR form,
//   * a per-net clock-spec index (first registered clock wins, matching
//     the reference scheduler's linear-scan-with-break semantics).
//
// Order is preserved exactly — including duplicate fanout entries when a
// gate lists the same input net twice — because the noise draw order, and
// therefore the waveforms, depend on it.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/circuit.h"

namespace dhtrng::sim {

struct FlatNetlist {
  std::size_t net_count = 0;

  // Gates, struct-of-arrays.
  std::vector<GateKind> gate_kind;
  std::vector<double> gate_delay_ps;
  std::vector<NetId> gate_output;
  std::vector<std::uint32_t> gate_in_off;  ///< size gates + 1
  std::vector<NetId> gate_in;
  std::size_t max_arity = 0;

  // Per-net fanout: gate indices, duplicates preserved.
  std::vector<std::uint32_t> fanout_off;  ///< size nets + 1
  std::vector<std::uint32_t> fanout;

  // Flip-flops grouped by clock net.
  std::vector<std::uint32_t> dff_off;  ///< size nets + 1
  std::vector<std::uint32_t> dff_by_clk;

  /// Index into Circuit::clocks() of the net's clock source, or -1.
  std::vector<std::int32_t> clock_index;

  /// Per-net hot metadata: everything the event loop reads for an applied
  /// net change (fanout span, flip-flop span, clock source) folded into
  /// one 20-byte record, so the common event touches one cache line where
  /// the parallel offset arrays would touch three.  Redundant with the
  /// CSR arrays above, which remain the canonical representation.
  struct NetMeta {
    std::uint32_t fanout_begin = 0;
    std::uint32_t fanout_end = 0;
    std::uint32_t dff_begin = 0;
    std::uint32_t dff_end = 0;
    std::int32_t clock = -1;
  };
  std::vector<NetMeta> net_meta;  ///< size nets

  /// Per-gate hot metadata: the evaluation + scheduling reads (input
  /// span, kind, output net) in one 16-byte record.  Redundant with the
  /// gate arrays above.
  struct GateMeta {
    std::uint32_t in_begin = 0;
    std::uint32_t in_end = 0;
    NetId output = 0;
    GateKind kind{};
  };
  std::vector<GateMeta> gate_meta;  ///< size gates

  static FlatNetlist build(const Circuit& circuit);
};

/// Gate function over a flat input-net list reading current net values;
/// truth-table-identical to evaluate_gate(kind, vector<bool>).
/// Always inlined into the simulator's event loop.
[[gnu::always_inline]] inline bool evaluate_gate_flat(
    GateKind kind, const std::uint8_t* values, const NetId* in,
    std::size_t n) {
  switch (kind) {
    case GateKind::Inv: return values[in[0]] == 0;
    case GateKind::Buf: return values[in[0]] != 0;
    case GateKind::And: {
      for (std::size_t i = 0; i < n; ++i) {
        if (values[in[i]] == 0) return false;
      }
      return true;
    }
    case GateKind::Nand: {
      for (std::size_t i = 0; i < n; ++i) {
        if (values[in[i]] == 0) return true;
      }
      return false;
    }
    case GateKind::Or: {
      for (std::size_t i = 0; i < n; ++i) {
        if (values[in[i]] != 0) return true;
      }
      return false;
    }
    case GateKind::Nor: {
      for (std::size_t i = 0; i < n; ++i) {
        if (values[in[i]] != 0) return false;
      }
      return true;
    }
    case GateKind::Xor: {
      std::uint8_t acc = 0;
      for (std::size_t i = 0; i < n; ++i) acc ^= values[in[i]];
      return (acc & 1) != 0;
    }
    case GateKind::Xnor: {
      std::uint8_t acc = 1;
      for (std::size_t i = 0; i < n; ++i) acc ^= values[in[i]];
      return (acc & 1) != 0;
    }
    case GateKind::Mux2:
      return values[values[in[0]] != 0 ? in[2] : in[1]] != 0;
  }
  return false;
}

}  // namespace dhtrng::sim
