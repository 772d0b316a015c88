// The source registry: every entropy-source architecture in the library,
// built by name at its default design point — the DH-TRNG (`dhtrng`), its
// bitsliced 64-instance engine (`soa`), the zoo front-ends (core/zoo/) and
// the Table 6 baselines (core/baselines/).  trng_tool, the compare report,
// pool/service factories and the registry-wide tests all enumerate this
// one table.  Non-default design points (sweeps, ablations, clock
// overrides) stay on the concrete classes and their Config structs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/dhtrng.h"  // Backend
#include "core/entropy_pool.h"
#include "core/trng.h"
#include "fpga/device.h"
#include "noise/jitter.h"
#include "noise/pvt.h"

namespace dhtrng::core {

struct SourceOptions {
  fpga::DeviceModel device = fpga::DeviceModel::artix7();
  noise::PvtCondition pvt{};
  std::uint64_t seed = 1;
  /// Backend::GateLevel is accepted only by entries with a gate build.
  Backend backend = Backend::Fast;
  /// Noise fidelity: the gate-level simulator's for gate-capable entries,
  /// the engine selector for `soa` (Exact = 64 scalar lanes, Fast = the
  /// bitsliced SIMD engine).  Phase-domain models have one stream.
  noise::NoiseMode noise_mode = noise::NoiseMode::Exact;
  /// Emit raw pre-postprocessing samples where the architecture has a
  /// post-processing stage (neo: von Neumann + LFSR; klein: XOR fold).
  bool raw = false;
};

struct SourceCapabilities {
  bool gate_level = false;     ///< has a Backend::GateLevel build
  bool word_parallel = false;  ///< one generate_words step = many instances
};

/// Registered names, in table order: dhtrng, soa, neo, klein, hbn, xor_ro,
/// msf_ro, coso, latch, tero.
const std::vector<std::string>& source_names();

/// Capability flags of `name`; throws std::invalid_argument if unknown.
SourceCapabilities source_capabilities(std::string_view name);

/// Build `name` at its default design point.  Throws std::invalid_argument
/// on an unknown name, or on Backend::GateLevel for an entry without a
/// gate build.
std::unique_ptr<TrngSource> make_source(std::string_view name,
                                        const SourceOptions& options = {});

/// An EntropyPool factory building `name` with `options`, the seed replaced
/// by the pool's per-producer seed.  Validates like make_source, at once.
EntropyPool::SourceFactory source_factory(std::string_view name,
                                          SourceOptions options = {});

}  // namespace dhtrng::core
