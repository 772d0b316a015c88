// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload raw_bulk|soa_cert|gate_sim --seed N
//             --seconds S --trace 0|1 [--trace-dir DIR]
//
// Prints a run header, one line per output check and per measured pass,
// and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ledger (see perfbench/README.md for what each one moves).
// Exits non-zero on bad arguments or when a workload throws.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sched.h>
#include <string>

#include "support/simd_noise.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "raw_bulk|soa_cert|gate_sim --seed N --seconds S "
               "--trace 0|1 [--trace-dir DIR]\n",
               why);
  return 2;
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

bool parse_args(int argc, char** argv, perfbench::Options& opt) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (key.rfind("--", 0) != 0) return false;
    const std::size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else {
      if (i + 1 >= argc) return false;
      value = argv[++i];
    }
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(opt.seconds > 0.0) ||
          opt.seconds > 120.0) {
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      opt.trace = value == "1";
    } else if (key == "--trace-dir") {
      opt.trace_dir = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

void print_json(const perfbench::Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!parse_args(argc, argv, opt)) return usage("bad arguments");
  const bool served = perfbench::is_served_workload(opt.workload);
  if (!served && opt.workload != "gate_sim") {
    return usage(("unknown workload '" + opt.workload + "'").c_str());
  }

  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d nproc=%d "
              "build=%s simd_tier=%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, online_cpus(),
              PERFBENCH_BUILD_TYPE,
              dhtrng::support::simd::tier_name(
                  dhtrng::support::simd::active_tier()));

  perfbench::Result result;
  try {
    if (served) {
      perfbench::run_served(opt, result);
    } else {
      perfbench::run_gate_sim(opt, result);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  for (perfbench::Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      result.fail_check(m.name + " is not a finite number");
      m.value = 0.0;  // keep the JSON line parseable
    }
  }
  if (result.attempted == 0) result.fail_check("no operation attempted");
  std::fflush(stdout);
  print_json(result);
  return 0;
}
