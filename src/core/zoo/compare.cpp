#include "core/zoo/compare.h"

#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "core/sources.h"
#include "fpga/power.h"
#include "fpga/slice_packer.h"
#include "stats/ais31.h"
#include "stats/fips140.h"
#include "stats/sp800_22.h"
#include "stats/sp800_90b.h"
#include "support/bitstream.h"
#include "support/rng.h"

namespace dhtrng::core {

CompareReport compare_architectures(const CompareOptions& options) {
  CompareOptions opt = options;
  if (opt.bits < 20000) {
    throw std::invalid_argument(
        "compare_architectures: bits must be >= 20000");
  }
  if (opt.devices.empty()) {
    opt.devices = {fpga::DeviceModel::artix7(), fpga::DeviceModel::virtex6()};
  }
  // The FoM needs a slice count: an explicitly named architecture without
  // a slice model is rejected like an unknown one; the default is every
  // registered architecture that has one.
  std::vector<std::string> archs;
  for (const std::string& arch :
       opt.archs.empty() ? source_names() : opt.archs) {
    if (make_source(arch)->slice_report().slice_count() > 0) {
      archs.push_back(arch);
    } else if (!opt.archs.empty()) {
      throw std::invalid_argument("compare_architectures: " + arch +
                                  " has no slice model");
    }
  }
  opt.archs = std::move(archs);

  CompareReport report;
  report.options = opt;
  // Per-entry seeds come off one SplitMix64 in fixed (device, arch)
  // iteration order — the report is a pure function of the options.
  support::SplitMix64 seeder(opt.seed);
  for (const fpga::DeviceModel& device : opt.devices) {
    for (const std::string& arch : opt.archs) {
      const auto source =
          make_source(arch, {.device = device, .seed = seeder.next()});
      TrngSource& src = *source;

      const support::BitStream bits = src.generate(opt.bits);
      const support::BitStream head = bits.slice(0, 20000);

      CompareRow row;
      row.arch = src.name();
      row.device = device.name;
      row.clock_mhz = src.clock_mhz();
      row.throughput_mbps = src.throughput_mbps();
      const sim::ResourceCounts rc = src.resources();
      row.luts = rc.luts;
      row.muxes = rc.muxes;
      row.dffs = rc.dffs;
      row.slices = src.slice_report().slice_count();
      row.power_mw =
          fpga::estimate_power(device, src.activity()).total_w() * 1e3;
      row.min_entropy = stats::sp800_90b::overall_min_entropy(bits);
      for (const auto& r : stats::sp800_22::run_all(bits)) {
        if (!r.applicable) continue;
        ++row.sp800_22_applicable;
        if (r.pass()) ++row.sp800_22_passed;
      }
      row.fips_pass = stats::fips140::power_up_ok(head);
      row.ais31_pass = stats::ais31::t1_monobit(head) &&
                       stats::ais31::t2_poker(head) &&
                       stats::ais31::t3_runs(head) &&
                       stats::ais31::t4_long_run(head) &&
                       stats::ais31::t5_autocorrelation(head);
      report.rows.push_back(std::move(row));
    }
  }
  return report;
}

std::string CompareReport::text() const {
  std::ostringstream out;
  out << "Cross-architecture comparison (Table 6 style)\n"
      << "seed " << options.seed << ", " << options.bits
      << " bits per entry, behavioral backends\n\n";
  out << std::left << std::setw(10) << "device" << std::setw(22) << "arch"
      << std::right << std::setw(9) << "clk MHz" << std::setw(9) << "Mbps"
      << std::setw(6) << "LUT" << std::setw(5) << "MUX" << std::setw(5)
      << "DFF" << std::setw(7) << "slice" << std::setw(8) << "P mW"
      << std::setw(7) << "Hmin" << std::setw(8) << "SP22" << std::setw(6)
      << "FIPS" << std::setw(7) << "AIS31" << std::setw(9) << "FoM"
      << "\n";
  for (const CompareRow& r : rows) {
    out << std::left << std::setw(10) << r.device << std::setw(22) << r.arch
        << std::right << std::fixed << std::setprecision(1) << std::setw(9)
        << r.clock_mhz << std::setw(9) << r.throughput_mbps << std::setw(6)
        << r.luts << std::setw(5) << r.muxes << std::setw(5) << r.dffs
        << std::setw(7) << r.slices << std::setw(8) << std::setprecision(1)
        << r.power_mw << std::setw(7) << std::setprecision(3)
        << r.min_entropy << std::setw(8)
        << (std::to_string(r.sp800_22_passed) + "/" +
            std::to_string(r.sp800_22_applicable))
        << std::setw(6) << (r.fips_pass ? "pass" : "FAIL") << std::setw(7)
        << (r.ais31_pass ? "pass" : "FAIL") << std::setw(9)
        << std::setprecision(3) << r.fom() << "\n";
  }
  return out.str();
}

}  // namespace dhtrng::core
