#include "trace/invariants.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "common/snapshot.h"

namespace disco::trace {
namespace {

/// Fixed-point confidence events carry llround(c * 256); half a step of
/// slack absorbs the rounding at the interval edges.
constexpr double kConfSlack = 1.0 / 512.0;

}  // namespace

InvariantChecker::InvariantChecker(const InvariantParams& p) : p_(p) {
  summary_.enabled = true;
  credits_.assign(static_cast<std::size_t>(p_.nodes) * p_.ports * p_.num_vcs,
                  p_.vc_depth);
  ni_credits_.assign(static_cast<std::size_t>(p_.nodes) * p_.num_vcs,
                     p_.vc_depth);
  vc_state_.assign(static_cast<std::size_t>(p_.nodes) * p_.ports * p_.num_vcs,
                   VcState::Idle);
  dead_nodes_.assign(p_.nodes, false);
  // Interval bounds implied by Eq.1 / Eq.2: remote pressure is bounded by
  // the downstream buffer space, local pressure by the competing-VC count.
  const double max_remote =
      static_cast<double>(p_.num_vcs) * static_cast<double>(p_.vc_depth);
  const double max_local =
      static_cast<double>(p_.ports) * static_cast<double>(p_.num_vcs);
  conf_comp_max_ = max_remote + p_.gamma * max_local + kConfSlack;
  conf_decomp_max_ = max_remote + p_.alpha * max_local + kConfSlack;
  conf_decomp_min_ = -p_.beta * static_cast<double>(p_.max_hops) - kConfSlack;
}

void InvariantChecker::violation(std::uint64_t& kind_counter,
                                 const TraceEvent& e, const std::string& what) {
  ++kind_counter;
  ++summary_.violations;
  if (summary_.first_violation.empty()) {
    std::ostringstream os;
    os << what << " at " << canonical_line(e);
    summary_.first_violation = os.str();
  }
}

void InvariantChecker::on_event(const TraceEvent& e) {
  ++summary_.events_checked;
  if (e.node < dead_nodes_.size() && dead_nodes_[e.node] &&
      category_of(e.event) != Category::Topo) {
    violation(summary_.topology_violations, e, "event at a dead tile");
  }
  switch (e.event) {
    case Event::BufferWrite:
      break;

    case Event::RouteCompute: {
      VcState& st = vc_state_[pool_index(e.node, e.port, e.vc)];
      if (st != VcState::Idle)
        violation(summary_.vc_state_violations, e, "RC on a non-idle VC");
      st = VcState::VcAlloc;
      break;
    }

    case Event::VcAllocGrant: {
      VcState& st = vc_state_[pool_index(e.node, e.port, e.vc)];
      if (st != VcState::VcAlloc)
        violation(summary_.vc_state_violations, e, "VA grant without RC");
      st = VcState::Active;
      break;
    }

    case Event::SwitchTraversal: {
      VcState& st = vc_state_[pool_index(e.node, e.port, e.vc)];
      if (st != VcState::Active)
        violation(summary_.vc_state_violations, e, "ST from a non-active VC");
      if (st_tail(e.arg)) st = VcState::Idle;
      const std::uint8_t out = st_out_port(e.arg);
      if (out != p_.local_port) {
        std::uint32_t& pool = credits_[pool_index(e.node, out, st_out_vc(e.arg))];
        if (pool == 0) {
          violation(summary_.credit_violations, e,
                    "ST without a downstream credit");
        } else {
          --pool;
        }
      }
      break;
    }

    case Event::CreditSend:
      break;

    case Event::CreditRecv: {
      std::uint32_t& pool = credits_[pool_index(e.node, e.port, e.vc)];
      if (pool >= p_.vc_depth) {
        violation(summary_.credit_violations, e,
                  "credit pool above buffer depth");
      } else {
        ++pool;
      }
      break;
    }

    case Event::Rebuild:
      rebuild_delta_ += e.arg;
      if (e.arg < -static_cast<std::int64_t>(p_.block_flits) ||
          e.arg > static_cast<std::int64_t>(p_.block_flits)) {
        violation(summary_.conservation_violations, e,
                  "rebuild delta beyond a packet's flit span");
      }
      break;

    case Event::NiInject:
      break;

    case Event::NiFlitInject: {
      ++injected_flits_;
      std::uint32_t& pool = ni_credits_[ni_index(e.node, e.vc)];
      if (pool == 0) {
        violation(summary_.credit_violations, e,
                  "NI injection without a credit");
      } else {
        --pool;
      }
      break;
    }

    case Event::NiCreditRecv: {
      std::uint32_t& pool = ni_credits_[ni_index(e.node, e.vc)];
      if (pool >= p_.vc_depth) {
        violation(summary_.credit_violations, e,
                  "NI credit pool above buffer depth");
      } else {
        ++pool;
      }
      break;
    }

    case Event::NiFlitEject: {
      ++ejected_flits_;
      const std::uint32_t seq = static_cast<std::uint32_t>(e.arg);
      std::uint64_t& mask = ejected_seqs_[e.pkt];
      const std::uint64_t bit = 1ULL << (seq & 63U);
      if (mask & bit)
        violation(summary_.eject_violations, e, "duplicate flit ejection");
      mask |= bit;
      break;
    }

    case Event::NiReassembled:
      ejected_seqs_.erase(e.pkt);
      break;

    case Event::NiDeliver:
      break;

    case Event::ConfidenceComp:
    case Event::CompStart: {
      const double c = static_cast<double>(e.arg) / 256.0;
      if (c < -kConfSlack || c > conf_comp_max_)
        violation(summary_.confidence_violations, e,
                  "Eq.1 confidence out of bounds");
      if (e.event == Event::ConfidenceComp) break;
      auto [it, inserted] =
          shadows_.try_emplace(pool_index(e.node, e.port, e.vc),
                               Shadow{e.pkt, false});
      if (!inserted) {
        violation(summary_.shadow_violations, e,
                  "engine armed on a VC with a live shadow");
        it->second = Shadow{e.pkt, false};
      }
      break;
    }

    case Event::ConfidenceDecomp:
    case Event::DecompStart: {
      const double c = static_cast<double>(e.arg) / 256.0;
      if (c < conf_decomp_min_ || c > conf_decomp_max_)
        violation(summary_.confidence_violations, e,
                  "Eq.2 confidence out of bounds");
      if (e.event == Event::ConfidenceDecomp) break;
      auto [it, inserted] =
          shadows_.try_emplace(pool_index(e.node, e.port, e.vc),
                               Shadow{e.pkt, false});
      if (!inserted) {
        violation(summary_.shadow_violations, e,
                  "engine armed on a VC with a live shadow");
        it->second = Shadow{e.pkt, false};
      }
      break;
    }

    case Event::CompAbort:
    case Event::DecompAbort:
    case Event::CompFinish:
    case Event::DecompFinish: {
      auto it = shadows_.find(pool_index(e.node, e.port, e.vc));
      if (it == shadows_.end() || it->second.pkt != e.pkt ||
          it->second.decided) {
        violation(summary_.shadow_violations, e,
                  "abort/finish without a matching armed shadow");
      } else {
        it->second.decided = true;
      }
      break;
    }

    case Event::ShadowRetire: {
      auto it = shadows_.find(pool_index(e.node, e.port, e.vc));
      if (it == shadows_.end() || !it->second.decided) {
        violation(summary_.shadow_violations, e,
                  "shadow retired before abort-or-commit");
        if (it != shadows_.end()) shadows_.erase(it);
      } else {
        shadows_.erase(it);
      }
      break;
    }

    case Event::L2Fill:
      if (e.arg < 1 || e.arg > static_cast<std::int64_t>(kBlockBytes) + 1)
        violation(summary_.cache_violations, e,
                  "L2 fill with an implausible stored size");
      break;

    case Event::L2Evict:
      break;

    case Event::TopoKill:
      if (e.arg == static_cast<std::int64_t>(HardFaultKind::Router) &&
          e.node < dead_nodes_.size()) {
        dead_nodes_[e.node] = true;
      }
      break;

    case Event::TopoVcReset: {
      // A hard-fault scrub rewound this VC to Idle (its packet was condemned
      // before the tail traversed); the next RC on it is legal again.
      vc_state_[pool_index(e.node, e.port, e.vc)] = VcState::Idle;
      break;
    }

    case Event::TopoFlitsKilled:
      if (e.arg < 0) {
        violation(summary_.topology_violations, e,
                  "negative killed-flit count");
      } else {
        killed_flits_ += static_cast<std::uint64_t>(e.arg);
      }
      break;

    case Event::TopoReroute:
    case Event::TopoUnreachable:
    case Event::TopoBypass:
      break;
  }
}

void InvariantChecker::end_of_cycle(Cycle now, std::uint64_t structural_inflight) {
  ++summary_.cycles_checked;
  const std::int64_t modeled =
      static_cast<std::int64_t>(injected_flits_) + rebuild_delta_ -
      static_cast<std::int64_t>(ejected_flits_) -
      static_cast<std::int64_t>(killed_flits_);
  if (modeled != static_cast<std::int64_t>(structural_inflight)) {
    TraceEvent e;
    e.cycle = now;
    e.arg = modeled - static_cast<std::int64_t>(structural_inflight);
    violation(summary_.conservation_violations, e,
              "flit conservation broken (modeled - structural = " +
                  std::to_string(e.arg) + ")");
  }
}

template <class Ar>
void InvariantChecker::visit(Ar& ar) {
  InvariantSummary& s = summary_;
  ar(s.enabled, s.events_checked, s.cycles_checked, s.violations,
     s.credit_violations, s.conservation_violations, s.vc_state_violations,
     s.shadow_violations, s.confidence_violations, s.eject_violations,
     s.cache_violations, s.topology_violations, s.first_violation);
  ar.each(credits_, "checker geometry");
  ar.each(ni_credits_, "checker geometry");
  ar.each(vc_state_);
  ar.each(dead_nodes_);
  ar(shadows_, ejected_seqs_, injected_flits_, ejected_flits_, killed_flits_,
     rebuild_delta_, conf_comp_max_, conf_decomp_min_, conf_decomp_max_);
}
template void InvariantChecker::visit(snap::Writer&);
template void InvariantChecker::visit(snap::Reader&);

}  // namespace disco::trace
