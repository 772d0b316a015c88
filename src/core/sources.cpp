#include "core/sources.h"

#include <stdexcept>

#include "core/baselines/coso_trng.h"
#include "core/baselines/latch_trng.h"
#include "core/baselines/msf_ro_trng.h"
#include "core/baselines/tero_trng.h"
#include "core/baselines/xor_ro_trng.h"
#include "core/dhtrng_soa.h"
#include "core/zoo/hbn_trng.h"
#include "core/zoo/klein_trng.h"
#include "core/zoo/neo_trng.h"

namespace dhtrng::core {

namespace {

using MakeFn = std::unique_ptr<TrngSource> (*)(const SourceOptions&);

struct Entry {
  std::string_view name;
  SourceCapabilities caps;
  MakeFn build;
};

/// `Config` at its defaults with every SourceOptions field it has set.
template <typename Config>
Config config_of(const SourceOptions& o) {
  Config c;
  c.device = o.device;
  c.pvt = o.pvt;
  c.seed = o.seed;
  if constexpr (requires(Config& k) { k.backend; }) c.backend = o.backend;
  if constexpr (requires(Config& k) { k.noise_mode; }) {
    c.noise_mode = o.noise_mode;
  }
  if constexpr (requires(Config& k) { k.raw; }) c.raw = o.raw;
  return c;
}

template <typename Source, typename Config>
std::unique_ptr<TrngSource> build(const SourceOptions& o) {
  return std::make_unique<Source>(config_of<Config>(o));
}

std::unique_ptr<TrngSource> build_soa(const SourceOptions& o) {
  return std::make_unique<DhTrngSoA>(
      DhTrngSoAConfig{config_of<DhTrngConfig>(o), o.noise_mode});
}

constexpr SourceCapabilities kGate{.gate_level = true};
constexpr SourceCapabilities kWords{.word_parallel = true};
constexpr SourceCapabilities kPlain{};

const Entry kEntries[] = {
    {"dhtrng", kGate, build<DhTrng, DhTrngConfig>},
    {"soa", kWords, build_soa},
    {"neo", kGate, build<NeoTrng, NeoTrngConfig>},
    {"klein", kGate, build<KleinTrng, KleinTrngConfig>},
    {"hbn", kGate, build<HbnTrng, HbnTrngConfig>},
    {"xor_ro", kPlain, build<XorRoTrng, XorRoConfig>},
    {"msf_ro", kPlain, build<MsfRoTrng, MsfRoConfig>},
    {"coso", kPlain, build<CosoTrng, CosoConfig>},
    {"latch", kPlain, build<LatchTrng, LatchTrngConfig>},
    {"tero", kPlain, build<TeroTrng, TeroConfig>},
};

const Entry& lookup(std::string_view name) {
  for (const Entry& e : kEntries) {
    if (e.name == name) return e;
  }
  std::string valid;
  for (const Entry& e : kEntries) {
    valid += (valid.empty() ? "" : "|") + std::string(e.name);
  }
  throw std::invalid_argument("unknown source '" + std::string(name) +
                              "' (expected " + valid + ")");
}

/// lookup() plus the backend check make_source and source_factory share.
const Entry& checked(std::string_view name, const SourceOptions& options) {
  const Entry& e = lookup(name);
  if (options.backend == Backend::GateLevel && !e.caps.gate_level) {
    throw std::invalid_argument("source '" + std::string(name) +
                                "' has no gate-level build");
  }
  return e;
}

}  // namespace

const std::vector<std::string>& source_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const Entry& e : kEntries) out.emplace_back(e.name);
    return out;
  }();
  return names;
}

SourceCapabilities source_capabilities(std::string_view name) {
  return lookup(name).caps;
}

std::unique_ptr<TrngSource> make_source(std::string_view name,
                                        const SourceOptions& options) {
  return checked(name, options).build(options);
}

EntropyPool::SourceFactory source_factory(std::string_view name,
                                          SourceOptions options) {
  const MakeFn build = checked(name, options).build;
  return [build, options](std::size_t, std::uint64_t seed) {
    SourceOptions producer = options;
    producer.seed = seed;
    return build(producer);
  };
}

}  // namespace dhtrng::core
