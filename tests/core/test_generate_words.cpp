// TrngSource::generate_words contract: for every source in the library,
// the words it returns are the LSB-first packing of the bits next_bit()
// yields on an identically seeded twin (bit b of word w is stream bit
// 64w + b), and the two entry points interleave into one stream.  The
// entropy pool draws only words, so this is what keeps each producer's
// served stream identical to its bit-level definition.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/sources.h"
#include "support/fault_sources.h"

namespace dhtrng::core {
namespace {

struct SourceCase {
  std::string name;
  std::function<std::unique_ptr<TrngSource>()> make;
  std::size_t words;  ///< stream length under test, in 64-bit words
};

/// Every registry entry, plus the engine it can switch to: a gate-level
/// build (fast noise, the shorter stream: a simulator step per bit) or the
/// other noise engine of a word-parallel source (Exact is 64 scalar lanes).
std::vector<SourceCase> all_sources() {
  std::vector<SourceCase> cases;
  std::uint64_t seed = 11;
  const auto add = [&](const std::string& label, const std::string& name,
                       SourceOptions options, std::size_t words) {
    options.seed = seed++;
    cases.push_back({label, [name, options] {
      return make_source(name, options);
    }, words});
  };
  for (const std::string& name : source_names()) {
    const SourceCapabilities caps = source_capabilities(name);
    if (caps.gate_level) {
      add(name + "_fast", name, {}, 8);
      add(name + "_gate", name,
          {.backend = Backend::GateLevel,
           .noise_mode = noise::NoiseMode::Fast}, 2);
    } else if (caps.word_parallel) {
      add(name + "_fast", name, {.noise_mode = noise::NoiseMode::Fast}, 8);
      add(name + "_exact", name, {}, 3);
    } else {
      add(name, name, {}, 8);
    }
  }
  cases.push_back({"fault_ideal", [] {
    return std::make_unique<testsupport::IdealSource>(21);
  }, 8});
  cases.push_back({"fault_stuck", [] {
    return std::make_unique<testsupport::StuckSource>(22, 200, true);
  }, 8});
  cases.push_back({"fault_biased", [] {
    return std::make_unique<testsupport::BiasedSource>(23, 100, 0.9);
  }, 8});
  cases.push_back({"fault_dropout", [] {
    return std::make_unique<testsupport::IntermittentDropoutSource>(
        24, std::vector<std::uint64_t>{60, 300}, 90);
  }, 8});
  cases.push_back({"fault_degrading", [] {
    return std::make_unique<testsupport::DegradingSource>(
        std::make_unique<testsupport::IdealSource>(25), 150, 0.8);
  }, 8});
  return cases;
}

void PrintTo(const SourceCase& c, std::ostream* os) { *os << c.name; }

/// `n` words packed LSB-first from `source`'s next_bit() stream.
std::vector<std::uint64_t> pack_bits(TrngSource& source, std::size_t n) {
  std::vector<std::uint64_t> words(n, 0);
  for (std::uint64_t& w : words) {
    for (unsigned b = 0; b < 64; ++b) {
      if (source.next_bit()) w |= std::uint64_t{1} << b;
    }
  }
  return words;
}

class GenerateWords : public testing::TestWithParam<SourceCase> {};

TEST_P(GenerateWords, EqualsLsbFirstPackingOfNextBit) {
  const SourceCase& c = GetParam();
  auto by_words = c.make();
  auto by_bits = c.make();
  ASSERT_NE(by_words, nullptr);
  std::vector<std::uint64_t> words(c.words);
  // Two calls, so a source's word path also continues across calls.
  const std::size_t half = c.words / 2;
  by_words->generate_words(words.data(), half);
  by_words->generate_words(words.data() + half, c.words - half);
  EXPECT_EQ(words, pack_bits(*by_bits, c.words));
}

TEST_P(GenerateWords, ContinuesTheStreamAfterNextBit) {
  // 13 bits through next_bit() first, so a word-buffering source has a
  // partly read word when generate_words takes over.
  const SourceCase& c = GetParam();
  auto mixed = c.make();
  auto by_bits = c.make();
  std::vector<bool> head;
  for (int i = 0; i < 13; ++i) head.push_back(mixed->next_bit());
  std::vector<std::uint64_t> words(c.words);
  mixed->generate_words(words.data(), c.words);
  for (int i = 0; i < 13; ++i) {
    ASSERT_EQ(by_bits->next_bit(), head[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(words, pack_bits(*by_bits, c.words));
  EXPECT_EQ(mixed->next_bit(), by_bits->next_bit());
}

INSTANTIATE_TEST_SUITE_P(AllSources, GenerateWords,
                         testing::ValuesIn(all_sources()),
                         [](const testing::TestParamInfo<SourceCase>& param) {
                           return param.param.name;
                         });

}  // namespace
}  // namespace dhtrng::core
