// Streaming invariant checker over the probe-event stream. It rebuilds
// event-driven models of the microarchitectural state the DISCO correctness
// argument depends on, and cross-checks them every cycle:
//   - credit conservation per (router, output port, VC): the credit pool
//     derived from ST / credit-receive events must stay within [0, depth]
//     (bonus credits from compression rebuilds and expansion credit debt
//     included), same for the NI injection pools;
//   - flit conservation: flits injected + rebuild deltas - flits ejected
//     must equal the structurally counted in-flight flits every cycle, so a
//     lost, duplicated or double-counted flit is caught without a drain;
//   - VC state-machine legality: Idle -> RC -> VcAlloc -> VA -> Active ->
//     tail ST -> Idle, no transition skipped or repeated;
//   - Eq.1/Eq.2 confidence bounds: every evaluated confidence must lie in
//     the interval implied by the coefficient signs and the mesh/buffer
//     geometry;
//   - shadow-packet lifetime: an armed engine's shadow is decided exactly
//     once (abort or finish) and only then retired, never re-armed first;
//   - ejection sanity: no flit sequence number is ejected twice for a live
//     packet, and L2 fills store a plausible byte count;
//   - dead-component silence: once a TopoKill declares a tile dead no
//     further pipeline/NI/cache event may fire there, and flits destroyed by
//     hard-fault scrubs or dropped by soft-fault injection enter the
//     conservation equation explicitly.
//
// The checker depends only on plain parameters (no noc/disco headers), so
// the trace module stays at the bottom of the dependency graph.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/trace.h"

namespace disco::trace {

/// Geometry + coefficient bounds the checker needs; fill from SystemConfig.
struct InvariantParams {
  std::uint32_t nodes = 16;
  std::uint32_t ports = 5;        ///< router ports (N/S/E/W/Local)
  std::uint32_t local_port = 4;   ///< index of the ejection port (inf credits)
  std::uint32_t num_vcs = 6;
  std::uint32_t vc_depth = 8;
  std::uint32_t max_hops = 6;     ///< mesh diameter: cols-1 + rows-1
  std::uint32_t block_flits = 9;  ///< max flits of a data packet (raw + tag)
  double beta = 2.0;              ///< Eq.2 distance coefficient
};

/// Per-run verdict; deterministic, so summaries compare across replays.
struct InvariantSummary {
  bool enabled = false;
  std::uint64_t events_checked = 0;
  std::uint64_t cycles_checked = 0;
  std::uint64_t violations = 0;
  std::uint64_t credit_violations = 0;        ///< pool under/overflow
  std::uint64_t conservation_violations = 0;  ///< per-cycle flit imbalance
  std::uint64_t vc_state_violations = 0;      ///< illegal stage transition
  std::uint64_t shadow_violations = 0;        ///< shadow lifetime broken
  std::uint64_t confidence_violations = 0;    ///< Eq.1/Eq.2 out of bounds
  std::uint64_t eject_violations = 0;         ///< duplicate flit ejection
  std::uint64_t cache_violations = 0;         ///< implausible L2 fill size
  std::uint64_t topology_violations = 0;      ///< activity at a dead component
  std::string first_violation;                ///< human-readable, first only

  bool clean() const { return violations == 0; }
};

class InvariantChecker {
 public:
  explicit InvariantChecker(const InvariantParams& p);

  void on_event(const TraceEvent& e);

  /// Structural reconciliation with the number of flits actually buffered
  /// in routers or in flight on links. Network::tick calls it once per
  /// cycle when its tracer carries this checker.
  void end_of_cycle(Cycle now, std::uint64_t structural_inflight);

  const InvariantSummary& summary() const { return summary_; }

 private:
  enum class VcState : std::uint8_t { Idle, VcAlloc, Active };
  struct Shadow {
    std::uint64_t pkt = 0;
    bool decided = false;  ///< abort-or-commit seen, retire pending
  };

  std::size_t pool_index(NodeId node, std::uint8_t port, std::uint8_t vc) const {
    return (static_cast<std::size_t>(node) * p_.ports + port) * p_.num_vcs + vc;
  }
  std::size_t ni_index(NodeId node, std::uint8_t vc) const {
    return static_cast<std::size_t>(node) * p_.num_vcs + vc;
  }
  void violation(std::uint64_t& kind_counter, const TraceEvent& e,
                 const std::string& what);

  InvariantParams p_;
  InvariantSummary summary_;

  std::vector<std::uint32_t> credits_;     ///< router (node, out port, vc)
  std::vector<std::uint32_t> ni_credits_;  ///< NI injection (node, vc)
  std::vector<VcState> vc_state_;          ///< router (node, in port, vc)
  std::unordered_map<std::size_t, Shadow> shadows_;       ///< by VC key
  std::unordered_map<std::uint64_t, std::uint64_t> ejected_seqs_;  ///< by pkt

  std::vector<bool> dead_nodes_;           ///< tiles killed by TopoKill(router)

  std::uint64_t injected_flits_ = 0;
  std::uint64_t ejected_flits_ = 0;
  std::uint64_t killed_flits_ = 0;  ///< destroyed by hard-fault scrubs/filters and drops
  std::int64_t rebuild_delta_ = 0;
  double conf_comp_max_ = 0;
  double conf_decomp_min_ = 0;
  double conf_decomp_max_ = 0;
};

}  // namespace disco::trace
