// The source registry (core/sources.h): its name list, its rejections, its
// capability flags and its pool factory, plus a same-seed / different-seed
// check over every entry.
#include "core/sources.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace dhtrng::core {
namespace {

TEST(SourceRegistry, NamesInTableOrder) {
  const std::vector<std::string> expected{
      "dhtrng", "soa", "neo", "klein", "hbn",
      "xor_ro", "msf_ro", "coso", "latch", "tero"};
  EXPECT_EQ(source_names(), expected);
}

TEST(SourceRegistry, RejectsUnknownAndEmptyNames) {
  for (const char* name : {"bogus", "", "fast", "gate", "zoo_neo"}) {
    EXPECT_THROW(make_source(name), std::invalid_argument) << name;
    EXPECT_THROW(source_factory(name), std::invalid_argument) << name;
    EXPECT_THROW(source_capabilities(name), std::invalid_argument) << name;
  }
}

TEST(SourceRegistry, CapabilityFlags) {
  std::vector<std::string> gate, words;
  for (const std::string& name : source_names()) {
    const SourceCapabilities caps = source_capabilities(name);
    if (caps.gate_level) gate.push_back(name);
    if (caps.word_parallel) words.push_back(name);
  }
  EXPECT_EQ(gate, (std::vector<std::string>{"dhtrng", "neo", "klein", "hbn"}));
  EXPECT_EQ(words, std::vector<std::string>{"soa"});
}

TEST(SourceRegistry, GateLevelOnlyWhereThereIsAGateBuild) {
  const SourceOptions gate{.backend = Backend::GateLevel};
  for (const std::string& name : source_names()) {
    if (source_capabilities(name).gate_level) {
      EXPECT_NE(make_source(name, gate), nullptr) << name;
    } else {
      EXPECT_THROW(make_source(name, gate), std::invalid_argument) << name;
      EXPECT_THROW(source_factory(name, gate), std::invalid_argument) << name;
    }
  }
}

TEST(SourceRegistry, SliceModelsAreTheFourPackableDesigns) {
  std::vector<std::string> packable;
  for (const std::string& name : source_names()) {
    if (make_source(name)->slice_report().slice_count() > 0) {
      packable.push_back(name);
    }
  }
  EXPECT_EQ(packable,
            (std::vector<std::string>{"dhtrng", "neo", "klein", "hbn"}));
}

TEST(SourceRegistry, FactorySubstitutesTheProducerSeed) {
  const SourceOptions options{.seed = 3, .noise_mode = noise::NoiseMode::Fast};
  const EntropyPool::SourceFactory factory = source_factory("soa", options);
  SourceOptions seeded = options;
  seeded.seed = 77;
  EXPECT_EQ(factory(0, 77)->generate(640),
            make_source("soa", seeded)->generate(640));
  EXPECT_NE(factory(0, 78)->generate(640),
            make_source("soa", seeded)->generate(640));
}

class RegistrySource : public testing::TestWithParam<std::string> {};

TEST_P(RegistrySource, SameSeedReproducesDifferentSeedDiffers) {
  auto a = make_source(GetParam(), {.seed = 21});
  auto b = make_source(GetParam(), {.seed = 21});
  auto c = make_source(GetParam(), {.seed = 22});
  const support::BitStream first = a->generate(4000);
  EXPECT_EQ(first, b->generate(4000));
  EXPECT_NE(first, c->generate(4000));
}

INSTANTIATE_TEST_SUITE_P(AllSources, RegistrySource,
                         testing::ValuesIn(source_names()),
                         [](const auto& param) { return param.param; });

}  // namespace
}  // namespace dhtrng::core
