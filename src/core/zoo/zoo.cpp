#include "core/zoo/zoo.h"

#include "core/zoo/hbn_trng.h"
#include "core/zoo/klein_trng.h"
#include "core/zoo/neo_trng.h"

namespace dhtrng::core {

std::vector<NamedGateNetlist> zoo_gate_netlists(
    const fpga::DeviceModel& device) {
  std::vector<NamedGateNetlist> out;

  {
    // Default design point: 3 cells of 5/7/9 elements at 100 MHz.
    NeoTrngNetlist n = build_neo_trng_netlist(device, 100.0);
    const sim::Circuit& c = n.circuit;
    NamedGateNetlist g;
    g.name = "neo";
    g.watch = {n.out_net, c.net("cell0_r"), c.net("cell2_r"),
               c.net("cell0_s1"), c.net("xcomb")};
    g.circuit = std::move(n.circuit);
    out.push_back(std::move(g));
  }
  {
    // Default design point: 16 mixed-length rings sampled at 200 MHz.
    KleinTrngNetlist n = build_klein_trng_netlist(device, 200.0);
    const sim::Circuit& c = n.circuit;
    NamedGateNetlist g;
    g.name = "klein";
    // Ring outputs are the last chain node of each loop (ro<r>_n<len-1>;
    // ring 0 has 3 elements, ring 15 has 9 — kKleinRingLengths).
    g.watch = {n.out_net, c.net("ro0_n2"), c.net("ro15_n8"), c.net("xt0_0")};
    g.circuit = std::move(n.circuit);
    out.push_back(std::move(g));
  }
  {
    // Default design point: 16-node ring, 4 taps, 600 MHz boundary clock.
    HbnTrngNetlist n = build_hbn_trng_netlist(device, 600.0);
    const sim::Circuit& c = n.circuit;
    NamedGateNetlist g;
    g.name = "hbn";
    g.watch = {n.out_net, c.net("n1"), c.net("n8"), c.net("xtap")};
    g.circuit = std::move(n.circuit);
    out.push_back(std::move(g));
  }
  return out;
}

}  // namespace dhtrng::core
