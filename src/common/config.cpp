#include "common/config.h"

#include <limits>
#include <sstream>
#include <stdexcept>

namespace disco {

const char* to_string(HardFaultKind k) {
  switch (k) {
    case HardFaultKind::Link: return "link";
    case HardFaultKind::Router: return "router";
    case HardFaultKind::DiscoEngine: return "engine";
    case HardFaultKind::LlcBank: return "llc";
  }
  return "?";
}

void SystemConfig::validate() const {
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument("invalid config: " + what);
  };
  if (noc.mesh_cols == 0 || noc.mesh_rows == 0)
    fail("mesh dimensions must be non-zero (got " +
         std::to_string(noc.mesh_cols) + "x" + std::to_string(noc.mesh_rows) +
         ")");
  if (noc.mesh_cols > std::numeric_limits<std::uint32_t>::max() / noc.mesh_rows)
    fail("mesh_cols * mesh_rows overflows the node count");
  if (noc.num_nodes() > 64)
    fail("mesh has " + std::to_string(noc.num_nodes()) +
         " tiles; the directory sharer bitmask caps it at 64");
  // vc_depth_flits == 0 stays legal: a zero-credit NoC is the canonical
  // starvation rig for the no-progress watchdog (it starves, it doesn't
  // crash), whereas zero VCs per vnet is not even structurally wirable.
  if (noc.vcs_per_vnet == 0) fail("vcs_per_vnet must be non-zero");
  if (noc.vcs_per_vnet > NocConfig::kMaxVcsPerVnet)
    fail("vcs_per_vnet is " + std::to_string(noc.vcs_per_vnet) +
         "; the router's 64-bit VC masks cap it at " +
         std::to_string(NocConfig::kMaxVcsPerVnet));
  if (fault.hard_fault_rate < 0.0)
    fail("hard_fault_rate must be non-negative");
  for (const HardFaultEvent& e : fault.hard_faults) {
    if (e.node >= noc.num_nodes())
      fail(std::string("hard fault '") + to_string(e.kind) + "' targets node " +
           std::to_string(e.node) + " outside the " +
           std::to_string(noc.num_nodes()) + "-tile mesh");
    if (e.kind == HardFaultKind::Link && e.dir > 3)
      fail("hard link fault direction must be N/S/E/W");
  }
}

std::string SystemConfig::summary() const {
  std::ostringstream os;
  os << noc.mesh_cols << "x" << noc.mesh_rows << " mesh, "
     << noc.num_nodes() << " tiles, " << noc.num_vcs() << " VCs ("
     << noc.vcs_per_vnet << "/vnet), " << noc.vc_depth_flits
     << "-flit buffers, L2 " << (l2.total_size_bytes >> 20) << "MB/"
     << l2.ways << "-way, scheme=" << to_string(scheme)
     << ", algo=" << algorithm;
  return os.str();
}

}  // namespace disco
