// Registry names (core/sources.h) of the zoo architectures (core/zoo/):
// the entries the per-architecture zoo suites run on.  Other registry
// entries break some of their assertions (coso emits 8 bits per clock;
// msf_ro and coso have max|ACF| near 0.8), so the suites do not simply
// enumerate the whole registry.
#pragma once

#include <string>
#include <vector>

namespace dhtrng::testsupport {

inline const std::vector<std::string> kZooArchs{"neo", "klein", "hbn"};

}  // namespace dhtrng::testsupport
