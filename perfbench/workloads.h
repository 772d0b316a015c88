// The four perfbench workloads and the isolated layer ledger.  Each runner
// appends its metrics and output-check verdicts to a Result.
#pragma once

#include <cstdint>
#include <string>

#include "common.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run dumps its spans and counter samples.
  std::string trace_dir = ".";
};

/// Min-entropy claim of the benchmark's own RCT/APT checks on delivered
/// streams.  Lower than the pool's 0.9 on purpose: at 0.9 the RCT cutoff
/// is 24 repeats, which an ideal source shows about once per 8 Mbit — a
/// designed false-alarm rate the pool absorbs by quarantining a block,
/// but one that would fail a check over a whole run.  At 0.5 (cutoff 41)
/// a false alarm over a run is below 1e-3 while a stuck or heavily biased
/// stream still fails at once.
inline constexpr double kCheckMinEntropy = 0.5;

/// Closed-loop client connections per served workload.
inline constexpr std::size_t kConnections = 4;
/// A pass splits --seconds over kRounds rounds, each on a fresh server or
/// generator, so one unlucky thread placement or slow spell of the host
/// cannot set the result (see RoundSeries).
inline constexpr int kRounds = 5;
/// Set-ups per round (all timed, the last one measured on); setup_s is
/// the median over every set-up of the pass.
inline constexpr int kSetupsPerRound = 2;
/// Warm-up before each round's measured window; the first round of a
/// process warms up longer (it reads consistently slow otherwise).
inline constexpr double kWarmupSeconds = 0.3;
inline constexpr double kFirstWarmupSeconds = 1.0;

/// True when `name` is raw_bulk or soa_cert.
bool is_served_workload(const std::string& name);

/// raw_bulk or soa_cert: an EntropyServer on loopback driven
/// by one closed-loop driver thread over kConnections connections.
void run_served(const Options& opt, Result& out);

/// gate_sim: one thread drives the gate-level DH-TRNG (fast noise)
/// through TrngSource::generate.
void run_gate_sim(const Options& opt, Result& out);

/// Isolated layer ledger (traced runs only): single-threaded timings of
/// each layer's public entry points on one buffer derived from `seed`.
/// Also reports the pool's quarantine count when `pool_quarantines` is
/// non-null (workloads without a served pool use this one).
void run_layer_ledger(std::uint64_t seed, Result& out,
                      std::uint64_t* pool_quarantines);

}  // namespace perfbench
