// Entropy analysis: run the SP 800-90B estimator battery and the
// autocorrelation analysis over every TRNG in the library and print a
// comparison — the workflow an evaluator would use to choose a design.
//
//   $ ./entropy_analysis [nbits]
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "core/hybrid_array.h"
#include "core/sources.h"
#include "stats/correlation.h"
#include "stats/sp800_90b.h"

int main(int argc, char** argv) {
  using namespace dhtrng;
  const std::size_t nbits =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 300000;

  std::vector<std::unique_ptr<core::TrngSource>> sources;
  sources.push_back(core::make_source("dhtrng", {.seed = 1}));
  sources.push_back(std::make_unique<core::HybridArrayTrng>(
      core::HybridArrayConfig{.seed = 2, .units = 12}));
  std::uint64_t seed = 3;
  for (const char* name : {"xor_ro", "msf_ro", "coso", "latch", "tero"}) {
    sources.push_back(core::make_source(name, {.seed = seed++}));
  }

  std::printf("analyzing %zu bits from each generator\n\n", nbits);
  std::printf("%-24s %8s %8s %8s %8s %9s %9s\n", "generator", "h-mcv",
              "h-markov", "h-lag", "overall", "bias(%)", "max|ACF|");

  for (const auto& source : sources) {
    const auto bits = source->generate(nbits);
    const auto rows = stats::sp800_90b::run_all(bits);
    double overall = 1.0, h_mcv = 0, h_markov = 0, h_lag = 0;
    for (const auto& r : rows) {
      overall = std::min(overall, r.h_min);
      if (r.name == "MCV") h_mcv = r.h_min;
      if (r.name == "Markov") h_markov = r.h_min;
      if (r.name == "Lag") h_lag = r.h_min;
    }
    double max_acf = 0.0;
    for (double a : stats::autocorrelation(bits, 50)) {
      max_acf = std::max(max_acf, std::abs(a));
    }
    std::printf("%-24s %8.4f %8.4f %8.4f %8.4f %9.4f %9.5f\n",
                source->name().c_str(), h_mcv, h_markov, h_lag, overall,
                stats::bias_percent(bits), max_acf);
  }

  std::printf("\n(overall = min over all ten SP 800-90B estimators; see "
              "bench_table4 for the full battery)\n");
  std::printf("note: MSFRO and the multiphase sampler are behavioural models "
              "of the *architectures*;\nthey emit raw samples without the "
              "originals' conversion/counting logic, so their\nmeasured "
              "entropy understates the published designs (DESIGN.md, "
              "substitution table).\nTheir Table 6 columns (area, throughput, "
              "power) are unaffected.\n");
  return 0;
}
