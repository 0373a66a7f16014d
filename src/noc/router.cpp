#include "noc/router.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "noc/snapshot.h"

namespace disco::noc {
namespace {

/// Effectively infinite credit pool for the ejection (Local) output: the NI
/// reassembly buffer always sinks flits, which protocol-level deadlock
/// freedom relies on.
constexpr std::uint32_t kEjectionCredits = 1u << 30;

}  // namespace

Router::Router(NodeId id, const MeshShape& mesh, const NocConfig& cfg, NocStats& stats)
    : id_(id), mesh_(mesh), cfg_(cfg), stats_(stats) {
  const std::uint32_t vcs = cfg_.num_vcs();
  assert(vcs <= 32 && "occupancy bitmask is one 32-bit word per port");
  vc_mask_ = vcs >= 32 ? ~0u : (1u << vcs) - 1u;
  num_vcs_ = vcs;
  input_.resize(static_cast<std::size_t>(kNumPorts) * vcs);
  out_vc_taken_.assign(static_cast<std::size_t>(kNumPorts) * vcs, 0);
  credits_.resize(static_cast<std::size_t>(kNumPorts) * vcs);
  for (std::size_t p = 0; p < kNumPorts; ++p) {
    const bool ejection = static_cast<Port>(p) == Port::Local;
    for (std::uint32_t v = 0; v < vcs; ++v)
      credit(p, v) = ejection ? kEjectionCredits : cfg_.vc_depth_flits;
  }
}

void Router::tick(Cycle now) {
  did_work_ = false;
  receive_credits(now);
  receive_flits(now);
  route_compute(now);
  vc_allocate(now);

  losers_scratch_.clear();
  switch_allocate_and_traverse(now, losers_scratch_);

  if (ext_ != nullptr) {
    ext_->after_allocation(now, losers_scratch_);
    ext_->tick(now);
  }
}

void Router::receive_credits(Cycle now) {
  for (std::size_t p = 0; p < kNumPorts; ++p) {
    if (in_credit_[p] == nullptr) continue;
    Credit c;
    while (in_credit_[p]->try_pop(now, c)) {
      assert(c.vc < num_vcs_);
      did_work_ = true;
      ++credit(p, c.vc);
      if (tracer_ != nullptr)
        tracer_->emit(now, id_, trace::Event::CreditRecv,
                      static_cast<std::uint8_t>(p), c.vc, 0, 0);
    }
  }
}

void Router::receive_flits(Cycle now) {
  for (std::size_t p = 0; p < kNumPorts; ++p) {
    if (in_flit_[p] == nullptr) continue;
    Flit f;
    while (in_flit_[p]->try_pop(now, f)) {
      assert(f.vc_tag < num_vcs_);
      if (degraded_ && filter_dead_flit(f, p, now)) continue;
      f.arrival = now;
      if (tracer_ != nullptr)
        tracer_->emit(now, id_, trace::Event::BufferWrite,
                      static_cast<std::uint8_t>(p), f.vc_tag, f.pkt->id,
                      static_cast<std::int64_t>(f.seq));
      did_work_ = true;
      busy_vcs_[p] |= 1u << f.vc_tag;
      in_vc(p, f.vc_tag).buffer.push_back(std::move(f));
      ++stats_.buffer_writes;
    }
  }
}

void Router::route_compute(Cycle now) {
  for (std::size_t p = 0; p < kNumPorts; ++p) {
    for (std::uint32_t mask = busy_vcs_[p]; mask != 0; mask &= mask - 1) {
      const auto v = static_cast<std::uint32_t>(std::countr_zero(mask));
      auto& ch = in_vc(p, v);
      if (ch.stage != VcStage::Idle) continue;
      if (ch.buffer.empty()) {
        // Self-clean: the occupancy bit was a false positive (or the VC
        // just drained); drop it once the VC is fully back to reset state.
        if (ch.sent_flits == 0 && !ch.engine_busy && !ch.sa_inhibit &&
            ch.credit_debt == 0 && ch.active_pkt == nullptr)
          busy_vcs_[p] &= ~(1u << v);
        continue;
      }
      const Flit& head = ch.buffer.front();
      assert(head.is_head() && "mid-packet flit at VC head in Idle stage");
      if (topo_ == nullptr || topo_->routing_healthy()) {
        ch.out_port = xy_route(mesh_, id_, head.pkt->dst);
      } else {
        Packet& pkt = *head.pkt;
        if (pkt.route_epoch != topo_->epoch()) {
          pkt.route_epoch = topo_->epoch();
          pkt.route_phase = 0;
        }
        ch.out_port = topo_->route(id_, pkt.dst, pkt.route_phase);
        if (ch.out_port != xy_route(mesh_, id_, pkt.dst)) {
          ++stats_.reroutes;
          if (tracer_ != nullptr)
            tracer_->emit(now, id_, trace::Event::TopoReroute,
                          static_cast<std::uint8_t>(p),
                          static_cast<std::uint8_t>(v), pkt.id,
                          static_cast<std::int64_t>(idx(ch.out_port)));
        }
      }
      ch.head_arrival = head.arrival;
      ch.stage = VcStage::VcAlloc;
      if (tracer_ != nullptr)
        tracer_->emit(now, id_, trace::Event::RouteCompute,
                      static_cast<std::uint8_t>(p),
                      static_cast<std::uint8_t>(v), head.pkt->id,
                      static_cast<std::int64_t>(idx(ch.out_port)));
    }
  }
}

void Router::vc_allocate(Cycle now) {
  // Collect requests per output port, with the sort keys (priority class,
  // round-robin distance) computed once here rather than inside comparator
  // calls. va_rr_ is only advanced after the grant loops, so reading it at
  // collection time sees the same value the old in-sort read did.
  auto& requests = va_requests_;
  for (auto& r : requests) r.clear();
  for (std::size_t p = 0; p < kNumPorts; ++p) {
    for (std::uint32_t mask = busy_vcs_[p]; mask != 0; mask &= mask - 1) {
      const auto v = static_cast<std::uint32_t>(std::countr_zero(mask));
      VirtualChannel& ch = in_vc(p, v);
      if (ch.stage != VcStage::VcAlloc) continue;
      if (now <= ch.head_arrival) continue;  // stage-2 pipeline constraint
      const std::size_t out = idx(ch.out_port);
      const int prio = priority_class(*ch.head_raw(), cfg_.deprioritize_compressible);
      const std::uint32_t rr =
          (static_cast<std::uint32_t>(p) * 8u + v + 64u - va_rr_[out]) % 64u;
      requests[out].push_back(
          {{static_cast<Port>(p), static_cast<std::uint8_t>(v)}, prio, rr});
    }
  }

  for (std::size_t out = 0; out < kNumPorts; ++out) {
    auto& reqs = requests[out];
    if (reqs.empty()) continue;
    stats_.alloc_ops += reqs.size();
    // Priority class first, then round-robin position. Stable insertion
    // sort: request lists are tiny (a handful of VCs) and std::stable_sort's
    // heap-buffered merge showed up in profiles. Same order as stable_sort
    // for any keys (and rr is unique per (port, vc), so no ties exist).
    for (std::size_t i = 1; i < reqs.size(); ++i) {
      const VaReq key = reqs[i];
      std::size_t j = i;
      while (j > 0 && (key.prio < reqs[j - 1].prio ||
                       (key.prio == reqs[j - 1].prio && key.rr < reqs[j - 1].rr))) {
        reqs[j] = reqs[j - 1];
        --j;
      }
      reqs[j] = key;
    }
    bool granted_any = false;
    for (const VaReq& r : reqs) {
      VirtualChannel& ch = vc(r.id);
      const auto vnet = static_cast<std::uint32_t>(ch.head_raw()->vnet);
      const std::uint32_t lo = vnet * cfg_.vcs_per_vnet;
      const std::uint32_t hi = lo + cfg_.vcs_per_vnet;
      for (std::uint32_t ov = lo; ov < hi; ++ov) {
        if (taken(out, ov) != 0) continue;
        taken(out, ov) = 1;
        ch.out_vc = static_cast<std::uint8_t>(ov);
        ch.stage = VcStage::Active;
        granted_any = true;
        if (tracer_ != nullptr)
          tracer_->emit(now, id_, trace::Event::VcAllocGrant,
                        static_cast<std::uint8_t>(r.id.port), r.id.vc,
                        ch.head_raw()->id,
                        static_cast<std::int64_t>((out << 8) | ov));
        break;
      }
    }
    if (granted_any) va_rr_[out] = (va_rr_[out] + 1) % 64u;
  }
}

bool Router::sa_eligible(const VirtualChannel& ch, Cycle now) const {
  if (ch.stage != VcStage::Active || ch.buffer.empty()) return false;
  if (ch.sa_inhibit) return false;  // blocking-mode engine lock
  // Output link severed by a hard fault mid-allocation; the kill scrub
  // resets or condemns this VC before forwarding could resume, so this
  // only guards the same-cycle window. Never fires on a healthy mesh (XY
  // stays on-mesh).
  if (out_flit_[idx(ch.out_port)] == nullptr && ch.out_port != Port::Local)
    return false;
  return ch.buffer.front().arrival + 2 <= now;
}

void Router::switch_allocate_and_traverse(Cycle now, std::vector<VcId>& losers) {
  // Stage 1 (input arbitration): one candidate VC per input port.
  std::array<int, kNumPorts> chosen_vc;
  std::array<int, kNumPorts> chosen_prio;  // winner's priority, for stage 2
  chosen_vc.fill(-1);
  chosen_prio.fill(0);
  auto& stalled = sa_stalled_;  // eligible work that cannot move this cycle
  stalled.clear();

  for (std::size_t p = 0; p < kNumPorts; ++p) {
    int best = -1;
    int best_prio = 0;
    std::uint32_t best_rr = 0;
    const std::uint32_t vcs = num_vcs_;
    for (std::uint32_t mask = busy_vcs_[p]; mask != 0; mask &= mask - 1) {
      const auto v = static_cast<std::uint32_t>(std::countr_zero(mask));
      VirtualChannel& ch = in_vc(p, v);
      if (!sa_eligible(ch, now)) {
        // VA-blocked packets are also idling candidates for DISCO.
        if (ch.stage == VcStage::VcAlloc && !ch.buffer.empty() &&
            now > ch.head_arrival)
          stalled.push_back({static_cast<Port>(p), static_cast<std::uint8_t>(v)});
        continue;
      }
      // Wormhole forwards flit by flit; virtual cut-through (section 3.3A)
      // only starts a packet when the downstream VC can hold all of it, so
      // packets always sit whole in one node.
      std::uint32_t needed_credits = 1;
      if (cfg_.flow_control == FlowControl::VirtualCutThrough &&
          ch.sent_flits == 0) {
        needed_credits = ch.head_raw()->flit_count();
      }
      if (credit(idx(ch.out_port), ch.out_vc) < needed_credits) {
        stalled.push_back({static_cast<Port>(p), static_cast<std::uint8_t>(v)});
        continue;
      }
      const int prio = priority_class(*ch.head_raw(), cfg_.deprioritize_compressible);
      const std::uint32_t rr_pos = (v + vcs - sa_in_rr_[p]) % vcs;
      if (best < 0 || prio < best_prio || (prio == best_prio && rr_pos < best_rr)) {
        if (best >= 0)
          stalled.push_back({static_cast<Port>(p), static_cast<std::uint8_t>(best)});
        best = static_cast<int>(v);
        best_prio = prio;
        best_rr = rr_pos;
      } else {
        stalled.push_back({static_cast<Port>(p), static_cast<std::uint8_t>(v)});
      }
    }
    chosen_vc[p] = best;
    chosen_prio[p] = best_prio;
    if (best >= 0) stats_.alloc_ops += 1;
  }

  // Early exit: with no stage-1 winner anywhere, stages 2 and 3 are no-ops
  // (stage 2 skips ports with chosen_vc < 0, so sa_out_rr_ never advances)
  // and only the stall report below has work left.
  bool any_chosen = false;
  for (std::size_t p = 0; p < kNumPorts; ++p) any_chosen |= chosen_vc[p] >= 0;
  if (!any_chosen) {
    for (const VcId& v : stalled) {
      VirtualChannel& ch = vc(v);
      if (ch.buffer.empty()) continue;
      ++ch.head_raw()->idle_cycles;
      ++stats_.sa_idle_losses;
      losers.push_back(v);
    }
    return;
  }

  // Stage 2 (output arbitration): one input per output port.
  std::array<int, kNumPorts> winner_input;
  winner_input.fill(-1);
  for (std::size_t out = 0; out < kNumPorts; ++out) {
    int best_in = -1;
    int best_prio = 0;
    std::uint32_t best_rr = 0;
    for (std::size_t p = 0; p < kNumPorts; ++p) {
      if (chosen_vc[p] < 0) continue;
      const VirtualChannel& ch = in_vc(p, static_cast<std::uint32_t>(chosen_vc[p]));
      if (idx(ch.out_port) != out) continue;
      const int prio = chosen_prio[p];  // computed on the same head in stage 1
      const std::uint32_t rr_pos =
          (static_cast<std::uint32_t>(p) + kNumPorts - sa_out_rr_[out]) % kNumPorts;
      if (best_in < 0 || prio < best_prio || (prio == best_prio && rr_pos < best_rr)) {
        if (best_in >= 0)
          stalled.push_back({static_cast<Port>(best_in),
                             static_cast<std::uint8_t>(chosen_vc[best_in])});
        best_in = static_cast<int>(p);
        best_prio = prio;
        best_rr = rr_pos;
      } else {
        stalled.push_back(
            {static_cast<Port>(p), static_cast<std::uint8_t>(chosen_vc[p])});
      }
    }
    winner_input[out] = best_in;
    if (best_in >= 0) sa_out_rr_[out] = (static_cast<std::uint32_t>(best_in) + 1) % kNumPorts;
  }

  // Stage 3: switch traversal for winners.
  for (std::size_t out = 0; out < kNumPorts; ++out) {
    const int p = winner_input[out];
    if (p < 0) continue;
    const VcId vid{static_cast<Port>(p), static_cast<std::uint8_t>(chosen_vc[p])};
    did_work_ = true;
    VirtualChannel& ch = vc(vid);
    sa_in_rr_[p] = (static_cast<std::uint32_t>(chosen_vc[p]) + 1) % num_vcs_;

    Flit f = std::move(ch.buffer.front());
    ch.buffer.pop_front();
    const bool tail = f.is_tail();
    if (ch.sent_flits == 0) ch.active_pkt = f.pkt;
    f.vc_tag = ch.out_vc;

    bool dropped = false;
    if (injector_ != nullptr && injector_->enabled()) {
      // One bit-flip coin per packet per link hop, tossed at the head flit.
      if (f.seq == 0 && f.pkt->has_data && f.pkt->compressed())
        injector_->corrupt_link_payload(f.pkt->encoded->bytes);
      // Only body non-tail flits may be lost: the head keeps routing/VA
      // state sane downstream and the tail keeps wormhole framing intact.
      if (f.seq > 0 && !tail && f.pkt->has_data &&
          injector_->should_drop_flit())
        dropped = true;
    }

    ++stats_.buffer_reads;
    if (!dropped) {
      assert(out_flit_[out] != nullptr && "ST to unconnected port");
      if (tracer_ != nullptr)
        tracer_->emit(now, id_, trace::Event::SwitchTraversal,
                      static_cast<std::uint8_t>(p),
                      static_cast<std::uint8_t>(chosen_vc[p]), f.pkt->id,
                      trace::st_arg(tail, static_cast<std::uint8_t>(out),
                                    ch.out_vc, f.seq));
      out_flit_[out]->push(now, std::move(f));
      ++stats_.crossbar_traversals;
      ++stats_.link_flits;
      assert(credit(out, ch.out_vc) > 0);
      --credit(out, ch.out_vc);
    }
    // A dropped flit still frees its input buffer slot, so the upstream
    // credit must be returned either way (credit conservation).
    send_credit_for_pop(vid, now);

    ++ch.sent_flits;
    if (ch.engine_busy && ch.sent_flits == 1 && ext_ != nullptr) {
      ext_->on_shadow_departed(now, vid);
    }
    if (tail) {
      taken(out, ch.out_vc) = 0;
      ch.stage = VcStage::Idle;
      ch.sent_flits = 0;
      ch.active_pkt.reset();
    }
  }

  // Report stalls: eligible-but-not-moved VCs idle this cycle.
  for (const VcId& v : stalled) {
    VirtualChannel& ch = vc(v);
    if (ch.buffer.empty()) continue;
    ++ch.head_raw()->idle_cycles;
    ++stats_.sa_idle_losses;
    losers.push_back(v);
  }
}

void Router::send_credit_for_pop(const VcId& v, Cycle now) {
  VirtualChannel& ch = vc(v);
  if (ch.credit_debt > 0) {
    --ch.credit_debt;  // absorb the slot consumed by an earlier expansion
    return;
  }
  if (out_credit_[idx(v.port)] == nullptr) return;
  out_credit_[idx(v.port)]->push(now, Credit{v.vc});
  ++stats_.credits_sent;
  if (tracer_ != nullptr)
    tracer_->emit(now, id_, trace::Event::CreditSend,
                  static_cast<std::uint8_t>(v.port), v.vc, 0, 0);
}

std::uint32_t Router::downstream_occupancy(Port out) const {
  if (out == Port::Local) return 0;
  std::uint32_t occupied = 0;
  for (std::uint32_t v = 0; v < num_vcs_; ++v) {
    const std::uint32_t c = credit(idx(out), v);
    occupied += cfg_.vc_depth_flits - std::min(c, cfg_.vc_depth_flits);
  }
  return occupied;
}

std::uint32_t Router::competing_vcs(Port out, const VcId& self) const {
  std::uint32_t n = 0;
  for (std::size_t p = 0; p < kNumPorts; ++p) {
    for (std::uint32_t mask = busy_vcs_[p]; mask != 0; mask &= mask - 1) {
      const auto v = static_cast<std::uint32_t>(std::countr_zero(mask));
      const VirtualChannel& ch = in_vc(p, v);
      if (ch.stage == VcStage::Idle || ch.buffer.empty()) continue;
      if (ch.out_port != out) continue;
      if (static_cast<Port>(p) == self.port && v == self.vc) continue;
      ++n;
    }
  }
  return n;
}

bool Router::rebuild_head_packet(const VcId& v, std::uint32_t old_flit_count, Cycle now) {
  VirtualChannel& ch = vc(v);
  const PacketPtr pkt = ch.head_packet();
  if (!pkt || ch.sent_flits != 0) return false;
  if (ch.buffered_flits_of_head() != old_flit_count) return false;

  ch.buffer.erase(ch.buffer.begin(), ch.buffer.begin() + old_flit_count);
  const std::uint32_t new_count = pkt->flit_count();
  for (std::uint32_t i = new_count; i-- > 0;) {
    Flit f;
    f.pkt = pkt;
    f.seq = i;
    f.vc_tag = v.vc;
    f.arrival = now;
    ch.buffer.push_front(std::move(f));
  }

  if (tracer_ != nullptr)
    tracer_->emit(now, id_, trace::Event::Rebuild,
                  static_cast<std::uint8_t>(v.port), v.vc, pkt->id,
                  static_cast<std::int64_t>(new_count) -
                      static_cast<std::int64_t>(old_flit_count));
  if (new_count < old_flit_count) {
    // Compression shrank the packet: retrieve the saved buffer space by
    // sending bonus credits upstream (paper section 3.2 step 3).
    for (std::uint32_t i = 0; i < old_flit_count - new_count; ++i)
      send_credit_for_pop(v, now);
  } else {
    // Decompression grew the packet: swallow future credits until the
    // engine-staging overflow is paid back.
    ch.credit_debt += new_count - old_flit_count;
  }
  return true;
}

std::uint64_t Router::total_buffered_flits() const {
  std::uint64_t n = 0;
  for (const auto& ch : input_) n += ch.buffer.size();
  return n;
}

void Router::stall_census(StallCensus& c) const {
  for (std::size_t p = 0; p < kNumPorts; ++p) {
    for (std::uint32_t v = 0; v < num_vcs_; ++v) {
      const VirtualChannel& ch = in_vc(p, v);
      c.buffered_flits += ch.buffer.size();
      if (ch.stage == VcStage::VcAlloc) {
        ++c.waiting_alloc_vcs;
      } else if (ch.stage == VcStage::Active) {
        ++c.active_vcs;
        if (credit(idx(ch.out_port), ch.out_vc) == 0) ++c.blocked_vcs;
      }
    }
  }
}

bool Router::quiescent() const { return total_buffered_flits() == 0; }

bool Router::can_sleep() const {
  // Fast path: a tick that received or forwarded anything left state behind
  // that the scan below would find anyway (non-empty buffers, active VCs).
  // Saying "no" without scanning is always safe — the only cost is at most
  // one extra awake no-op tick, which touches no stats, traces or snapshot
  // state (elision telemetry is deliberately excluded from all three).
  if (did_work_) return false;
  for (std::size_t p = 0; p < kNumPorts; ++p) {
    // Anything still in flight on an input wire needs a tick to be
    // received, even though the push already raised the pending-wake flag
    // (restored snapshots carry link contents without wake state).
    if (in_flit_[p] != nullptr && !in_flit_[p]->empty()) return false;
    if (in_credit_[p] != nullptr && !in_credit_[p]->empty()) return false;
    // Occupied VCs all have their busy bit set (conservative superset), so
    // only set bits need inspecting. no_pending_work() below deliberately
    // keeps the full scan so traced runs cross-check this shortcut.
    for (std::uint32_t mask = busy_vcs_[p]; mask != 0; mask &= mask - 1) {
      const VirtualChannel& ch =
          in_vc(p, static_cast<std::uint32_t>(std::countr_zero(mask)));
      if (ch.stage != VcStage::Idle || !ch.buffer.empty() ||
          ch.sent_flits != 0 || ch.engine_busy)
        return false;
    }
  }
  // credit_debt with an empty buffer is safe to sleep on: the debt is only
  // ever settled against credits arriving on a wire, which wakes us.
  return ext_ == nullptr || ext_->idle();
}

bool Router::no_pending_work(Cycle now) const {
  for (std::size_t p = 0; p < kNumPorts; ++p) {
    if (in_flit_[p] != nullptr && !in_flit_[p]->empty() &&
        in_flit_[p]->front_ready() <= now)
      return false;
    if (in_credit_[p] != nullptr && !in_credit_[p]->empty() &&
        in_credit_[p]->front_ready() <= now)
      return false;
    for (std::uint32_t v = 0; v < num_vcs_; ++v) {
      const VirtualChannel& ch = in_vc(p, v);
      if (ch.stage != VcStage::Idle || !ch.buffer.empty() ||
          ch.sent_flits != 0 || ch.engine_busy)
        return false;
    }
  }
  return ext_ == nullptr || ext_->idle();
}

bool Router::filter_dead_flit(const Flit& f, std::size_t p, Cycle now) {
  const PacketPtr& pkt = f.pkt;
  bool drop = condemned_ != nullptr && condemned_->count(pkt->id) > 0;
  if (!drop && topo_ != nullptr &&
      (!topo_->unit_alive(pkt->dst, pkt->dst_unit) ||
       !topo_->reachable(id_, pkt->dst))) {
    drop = true;
    if (doomed_cb_) doomed_cb_(pkt, now);
  }
  if (!drop) return false;
  ++stats_.dead_component_drops;
  // The flit never occupies a buffer slot, so the upstream sender's credit
  // comes straight back (conservation holds through the destruction).
  if (out_credit_[p] != nullptr) {
    out_credit_[p]->push(now, Credit{f.vc_tag});
    ++stats_.credits_sent;
    if (tracer_ != nullptr)
      tracer_->emit(now, id_, trace::Event::CreditSend,
                    static_cast<std::uint8_t>(p), f.vc_tag, 0, 0);
  }
  if (tracer_ != nullptr)
    tracer_->emit(now, id_, trace::Event::TopoFlitsKilled,
                  static_cast<std::uint8_t>(p), f.vc_tag, pkt->id, 1);
  return true;
}

void Router::disconnect_port(Port p) {
  in_flit_[idx(p)] = nullptr;
  out_flit_[idx(p)] = nullptr;
  in_credit_[idx(p)] = nullptr;
  out_credit_[idx(p)] = nullptr;
}

void Router::collect_severed(std::vector<PacketPtr>& out) const {
  for (std::size_t p = 0; p < kNumPorts; ++p) {
    for (std::uint32_t v = 0; v < num_vcs_; ++v) {
      const VirtualChannel& ch = in_vc(p, v);
      if (ch.sent_flits == 0 || ch.active_pkt == nullptr) continue;
      if (ch.out_port == Port::Local) continue;  // ejection never dies alone
      if (out_flit_[idx(ch.out_port)] != nullptr) continue;
      out.push_back(ch.active_pkt);
    }
  }
}

void Router::collect_buffered_packets(std::vector<PacketPtr>& out) const {
  for (std::size_t p = 0; p < kNumPorts; ++p) {
    for (std::uint32_t v = 0; v < num_vcs_; ++v) {
      const VirtualChannel& ch = in_vc(p, v);
      if (ch.sent_flits > 0 && ch.active_pkt != nullptr)
        out.push_back(ch.active_pkt);
      const Packet* last = nullptr;
      for (const Flit& f : ch.buffer) {
        if (f.pkt.get() == last) continue;  // runs are contiguous
        last = f.pkt.get();
        out.push_back(f.pkt);
      }
    }
  }
}

std::uint64_t Router::scrub_condemned(Cycle now) {
  if (condemned_ == nullptr || condemned_->empty()) return 0;
  std::uint64_t killed = 0;
  for (std::size_t p = 0; p < kNumPorts; ++p) {
    for (std::uint32_t v = 0; v < num_vcs_; ++v) {
      VirtualChannel& ch = in_vc(p, v);
      const VcId vid{static_cast<Port>(p), static_cast<std::uint8_t>(v)};
      // Reset the pipeline state if the packet owning it is condemned.
      const PacketPtr owner =
          ch.sent_flits > 0 ? ch.active_pkt : ch.head_packet();
      if (ch.stage != VcStage::Idle && owner != nullptr &&
          condemned_->count(owner->id) > 0) {
        if (ch.engine_busy && ext_ != nullptr)
          ext_->on_shadow_departed(now, vid);  // abort the engine's copy
        if (ch.stage == VcStage::Active)
          taken(idx(ch.out_port), ch.out_vc) = 0;
        ch.stage = VcStage::Idle;
        ch.sent_flits = 0;
        ch.active_pkt.reset();
        ch.sa_inhibit = false;
        if (tracer_ != nullptr)
          tracer_->emit(now, id_, trace::Event::TopoVcReset,
                        static_cast<std::uint8_t>(p),
                        static_cast<std::uint8_t>(v), owner->id, 0);
      }
      // Destroy every buffered flit of any condemned packet (head or a
      // queued run behind it). Per-flit credit returns keep conservation:
      // expansion debt is absorbed first, exactly as normal pops would.
      for (auto it = ch.buffer.begin(); it != ch.buffer.end();) {
        if (condemned_->count(it->pkt->id) > 0) {
          it = ch.buffer.erase(it);
          ++killed;
          send_credit_for_pop(vid, now);
        } else {
          ++it;
        }
      }
    }
  }
  if (killed > 0) {
    stats_.flits_destroyed += killed;
    if (tracer_ != nullptr)
      tracer_->emit(now, id_, trace::Event::TopoFlitsKilled, 0, 0, 0,
                    static_cast<std::int64_t>(killed));
  }
  return killed;
}

void Router::reset_unsent_vcs(Cycle now) {
  for (std::size_t p = 0; p < kNumPorts; ++p) {
    for (std::uint32_t v = 0; v < num_vcs_; ++v) {
      VirtualChannel& ch = in_vc(p, v);
      if (ch.stage == VcStage::Idle || ch.sent_flits > 0) continue;
      if (ch.stage == VcStage::Active)
        taken(idx(ch.out_port), ch.out_vc) = 0;
      ch.stage = VcStage::Idle;
      ch.active_pkt.reset();
      // engine_busy survives: the compression still targets the head
      // packet, which re-routes in place under the new tables.
      if (tracer_ != nullptr)
        tracer_->emit(now, id_, trace::Event::TopoVcReset,
                      static_cast<std::uint8_t>(p),
                      static_cast<std::uint8_t>(v),
                      ch.head_packet() ? ch.head_packet()->id : 0, 0);
    }
  }
}

std::uint64_t Router::drain_dead(std::vector<PacketPtr>& inflight, Cycle now) {
  std::uint64_t killed = 0;
  for (std::size_t p = 0; p < kNumPorts; ++p) {
    for (std::uint32_t v = 0; v < num_vcs_; ++v) {
      VirtualChannel& ch = in_vc(p, v);
      if (ch.sent_flits > 0 && ch.active_pkt != nullptr)
        inflight.push_back(ch.active_pkt);
      const Packet* last = nullptr;
      for (const Flit& f : ch.buffer) {
        if (f.pkt.get() == last) continue;
        last = f.pkt.get();
        inflight.push_back(f.pkt);
      }
      killed += ch.buffer.size();
      ch.buffer.clear();
      ch.stage = VcStage::Idle;
      ch.sent_flits = 0;
      ch.credit_debt = 0;
      ch.engine_busy = false;
      ch.sa_inhibit = false;
      ch.active_pkt.reset();
    }
  }
  stats_.flits_destroyed += killed;
  if (killed > 0 && tracer_ != nullptr)
    tracer_->emit(now, id_, trace::Event::TopoFlitsKilled, 0, 0, 0,
                  static_cast<std::int64_t>(killed));
  return killed;
}

bool Router::credits_quiescent() const {
  for (std::size_t p = 0; p < kNumPorts; ++p) {
    if (static_cast<Port>(p) == Port::Local) continue;
    if (out_flit_[p] == nullptr) continue;  // mesh edge
    for (std::uint32_t v = 0; v < num_vcs_; ++v) {
      if (credit(p, v) != cfg_.vc_depth_flits) return false;
    }
  }
  for (const VirtualChannel& ch : input_) {
    if (ch.credit_debt != 0) return false;
  }
  return true;
}

template <class Ar>
void Router::visit(Ar& ar) {
  for (std::size_t p = 0; p < kNumPorts; ++p) {
    for (std::uint32_t v = 0; v < num_vcs_; ++v) ar(in_vc(p, v));
    for (std::uint32_t v = 0; v < num_vcs_; ++v) ar(credit(p, v));
    for (std::uint32_t v = 0; v < num_vcs_; ++v) ar(taken(p, v));
  }
  ar(va_rr_, sa_in_rr_, sa_out_rr_, degraded_);
  // Restored VCs may hold arbitrary state; rebuild the occupancy mask
  // pessimistically and let route_compute clean it up.
  if constexpr (Ar::kLoading) busy_vcs_.fill(vc_mask_);
}
template void Router::visit(snap::Writer&);
template void Router::visit(snap::Reader&);

}  // namespace disco::noc
