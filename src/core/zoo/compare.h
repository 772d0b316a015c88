// Cross-architecture Table-6-style comparison: every zoo architecture plus
// the DH-TRNG itself, characterized per device model from the same
// TrngSource objects that generate the bits — throughput, slice-packed
// area, modeled power, SP 800-90B min-entropy and suite pass rates, and
// the throughput/(area*power) figure of merit the paper's Table 6 argues
// with.  Deterministic under a pinned seed: the report text contains no
// wall times and every per-entry generator seed is derived from
// CompareOptions::seed in a fixed order, so the same options produce the
// identical report byte for byte (the CI artifact / regression contract).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fpga/device.h"

namespace dhtrng::core {

struct CompareRow {
  std::string arch;    ///< TrngSource::name() of the entry
  std::string device;  ///< DeviceModel::name
  double clock_mhz = 0.0;
  double throughput_mbps = 0.0;
  std::size_t luts = 0;
  std::size_t muxes = 0;
  std::size_t dffs = 0;
  std::size_t slices = 0;
  double power_mw = 0.0;
  double min_entropy = 0.0;  ///< SP 800-90B overall estimate (per bit)
  int sp800_22_passed = 0;   ///< tests passed at alpha = 0.01
  int sp800_22_applicable = 0;
  bool fips_pass = false;    ///< FIPS 140-2 power-up battery
  bool ais31_pass = false;   ///< AIS-31 T1-T5 on the first 20000 bits
  /// Table 6 figure of merit: Mbps per slice per mW.
  double fom() const {
    const double denom =
        static_cast<double>(slices ? slices : 1) * (power_mw > 0.0 ? power_mw : 1.0);
    return throughput_mbps / denom;
  }
};

struct CompareOptions {
  std::uint64_t seed = 42;
  /// Bits generated and characterized per (architecture, device) entry.
  /// Must be >= 20000 (the FIPS/AIS-31 block size).
  std::size_t bits = 1u << 17;
  /// Device models to sweep; empty selects {artix7, virtex6}.
  std::vector<fpga::DeviceModel> devices;
  /// Architectures by registry name (core/sources.h), each of which must
  /// have a slice model; empty selects every registered architecture that
  /// has one (dhtrng, neo, klein, hbn).
  std::vector<std::string> archs;
};

struct CompareReport {
  CompareOptions options;
  std::vector<CompareRow> rows;
  /// The rendered table (deterministic; see header comment).
  std::string text() const;
};

/// Throws std::invalid_argument on an unknown architecture name, one
/// without a slice model, or `bits` < 20000.
CompareReport compare_architectures(const CompareOptions& options = {});

}  // namespace dhtrng::core
