// The entropy-source zoo: alternative TRNG front-ends (neoTRNG, Klein-style
// RO sampler, hybrid Boolean network) behind the common TrngSource
// interface; core/sources.h builds them by name.  zoo_gate_netlists()
// exposes their gate-level builds for the golden-waveform digest battery,
// parallel to core::golden_gate_netlists().
#pragma once

#include <vector>

#include "core/netlist.h"  // NamedGateNetlist
#include "fpga/device.h"

namespace dhtrng::core {

/// Gate-level builds of every zoo architecture for `device` (named "neo",
/// "klein", "hbn"), each with a curated watch-net set — the inventory
/// behind the zoo golden-waveform digests
/// (tests/core/test_zoo_differential.cpp).
std::vector<NamedGateNetlist> zoo_gate_netlists(
    const fpga::DeviceModel& device);

}  // namespace dhtrng::core
