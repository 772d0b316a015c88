// Common interface of every random-number generator model in the library:
// the DH-TRNG itself and the re-implemented baselines it is compared
// against in Table 6.  A TrngSource produces one bit per sampling-clock
// cycle and knows its own FPGA resource/activity footprint so the area,
// power and figure-of-merit columns can be derived from the same object
// that generated the bits.
#pragma once

#include <cstdint>
#include <cstddef>
#include <string>

#include "fpga/power.h"
#include "fpga/slice_packer.h"
#include "sim/circuit.h"
#include "support/bitstream.h"

namespace dhtrng::core {

class TrngSource {
 public:
  virtual ~TrngSource() = default;

  virtual std::string name() const = 0;

  /// One sampled output bit (one sampling-clock cycle).
  virtual bool next_bit() = 0;

  /// The next 64 * `n` bits of the stream as `n` words, LSB-first: bit b
  /// of out[w] is stream bit 64w + b.  The default packs next_bit(); word-
  /// parallel sources override it with their native step.  Either way
  /// the stream continues exactly where next_bit() would have, so the two
  /// entry points may be interleaved.
  virtual void generate_words(std::uint64_t* out, std::size_t n);

  /// Append `nbits` bits to `out` (default: repeated next_bit()).
  virtual void generate(support::BitStream& out, std::size_t nbits);

  /// Convenience wrapper returning a fresh stream.
  support::BitStream generate(std::size_t nbits);

  /// Power-cycle: reset all circuit state (ring phases, registers) to the
  /// power-on values while the physical noise processes keep evolving —
  /// the semantics of the paper's restart test (Section 4.2).
  virtual void restart() = 0;

  /// FPGA resource inventory of the design (LUT / MUX / DFF).
  virtual sim::ResourceCounts resources() const = 0;

  /// Sampling clock in MHz (= output bit rate in Mbps for 1-bit designs).
  virtual double clock_mhz() const = 0;

  /// Output throughput in Mbps (bits per cycle * clock).
  virtual double throughput_mbps() const { return clock_mhz(); }

  /// Switching-activity estimate for the power model.
  virtual fpga::ActivityEstimate activity() const = 0;

  /// Slice packing of the design (the Table 6 area column); empty, i.e.
  /// 0 slices, for a source without a slice model.
  virtual fpga::SliceReport slice_report() const { return {}; }
};

}  // namespace dhtrng::core
