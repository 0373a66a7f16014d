#include "noc/router.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <span>

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
  assert(kNumPorts * vcs <= 64 && "stage masks are one 64-bit word per router");
  num_vcs_ = vcs;
  input_.resize(static_cast<std::size_t>(kNumPorts) * vcs);
  losers_scratch_.reserve(static_cast<std::size_t>(kNumPorts) * vcs);
  for (std::size_t p = 0; p < kNumPorts; ++p) {
    in_flit_[p].set_port_bit(flit_wires_.data(), 1u << p);
    in_credit_[p].set_capacity(vcs * cfg_.vc_depth_flits);
    in_credit_[p].set_port_bit(credit_wires_.data(), 1u << p);
    port_bits_[p] = ((std::uint64_t{1} << vcs) - 1) << (p * vcs);
    sa_in_rr_[p] = static_cast<std::uint32_t>(p * vcs);
    const bool ejection = static_cast<Port>(p) == Port::Local;
    for (std::uint32_t v = 0; v < vcs; ++v) {
      credit(p, v) = ejection ? kEjectionCredits : cfg_.vc_depth_flits;
      vc_of_bit_[p * vcs + v] = {static_cast<Port>(p), static_cast<std::uint8_t>(v)};
    }
  }
}

// The stages run once per tick, in this order; each is inlined into tick().

[[gnu::always_inline]] inline void Router::receive_credits(Cycle now) {
  std::uint32_t& visible = credit_wires_[now & 1];
  for (std::uint32_t wires = visible; wires != 0; wires &= wires - 1) {
    const auto p = static_cast<std::size_t>(std::countr_zero(wires));
    CreditLink& link = in_credit_[p];
    const std::span<const std::uint8_t> batch = link.take(now);
    did_work_ |= !batch.empty();
    std::uint32_t* const credits = &credits_[p * num_vcs_];
    trace::Tracer* const tracer = tracer_;
    for (const std::uint8_t vc : batch) {
      assert(vc < num_vcs_);
      ++credits[vc];
      if (tracer != nullptr)
        tracer->emit(now, id_, trace::Event::CreditRecv,
                     static_cast<std::uint8_t>(p), vc, 0, 0);
    }
  }
  visible = 0;
}

[[gnu::always_inline]] inline void Router::receive_flits(Cycle now) {
  std::uint32_t& visible = flit_wires_[now & 1];
  for (std::uint32_t wires = visible; wires != 0; wires &= wires - 1) {
    const auto p = static_cast<std::size_t>(std::countr_zero(wires));
    FlitLink& link = in_flit_[p];
    // At most one flit per wire is visible per cycle.
    if (Flit* f = link.take(now)) {
      assert(f->vc_tag < num_vcs_);
      if (degraded_ && filter_dead_flit(*f, p, now)) {
        f->pkt.reset();
      } else {
        f->arrival = now;
        if (tracer_ != nullptr)
          tracer_->emit(now, id_, trace::Event::BufferWrite,
                        static_cast<std::uint8_t>(p), f->vc_tag, f->pkt->id,
                        static_cast<std::int64_t>(f->seq));
        did_work_ = true;
        const std::size_t i = p * num_vcs_ + f->vc_tag;
        occupied_ |= std::uint64_t{1} << i;
        input_[i].buffer.emplace_back(std::move(*f));
        ++stats_.buffer_writes;
      }
    }
  }
  visible = 0;
}

[[gnu::always_inline]] inline void Router::route_compute(Cycle now) {
  for (std::uint64_t mask = occupied_ & ~(alloc_ | active_); mask != 0;
       mask &= mask - 1) {
    const auto i = static_cast<std::size_t>(std::countr_zero(mask));
    VirtualChannel& ch = input_[i];
    assert(ch.stage == VcStage::Idle && "stage masks out of step");
    if (ch.buffer.empty()) {
      // Self-clean: the occupancy bit was a false positive (or the VC
      // just drained); drop it once the VC is fully back to reset state.
      if (ch.sent_flits == 0 && !ch.engine_busy && ch.credit_debt == 0 &&
          ch.active_pkt == nullptr)
        occupied_ &= ~(std::uint64_t{1} << i);
      continue;
    }
    const VcId vid = vc_of_bit_[i];
    const Flit& head = ch.buffer.front();
    assert(head.is_head() && "mid-packet flit at VC head in Idle stage");
    Packet& pkt = *head.pkt;
    if (topo_ == nullptr || topo_->routing_healthy()) {
      ch.out_port = xy_route(mesh_, id_, pkt.dst);
    } else {
      if (pkt.route_epoch != topo_->epoch()) {
        pkt.route_epoch = topo_->epoch();
        pkt.route_phase = 0;
      }
      ch.out_port = topo_->route(id_, pkt.dst, pkt.route_phase);
      if (ch.out_port != xy_route(mesh_, id_, pkt.dst)) {
        ++stats_.reroutes;
        if (tracer_ != nullptr)
          tracer_->emit(now, id_, trace::Event::TopoReroute,
                        static_cast<std::uint8_t>(vid.port), vid.vc, pkt.id,
                        static_cast<std::int64_t>(idx(ch.out_port)));
      }
    }
    ch.head_arrival = head.arrival;
    ch.head_flits = pkt.flit_count();
    ch.head_prio = static_cast<std::uint8_t>(
        priority_class(pkt, cfg_.deprioritize_compressible));
    ch.head_vnet = static_cast<std::uint8_t>(pkt.vnet);
    set_stage(i, VcStage::VcAlloc);
    if (tracer_ != nullptr)
      tracer_->emit(now, id_, trace::Event::RouteCompute,
                    static_cast<std::uint8_t>(vid.port), vid.vc, pkt.id,
                    static_cast<std::int64_t>(idx(ch.out_port)));
  }
}

[[gnu::always_inline]] inline void Router::vc_allocate(Cycle now) {
  // Grant order per output: priority class first, then round-robin distance
  // of the request's position key p*8+v from va_rr_[out], modulo 64. The key
  // is unique per (port, VC) only while num_vcs <= 8; above that, (p, v) and
  // (p+1, v-8) share a key, and the tie goes to the lower port — the VC in
  // the higher v / 8 layer. So each layer keeps its own mask over the 64 key
  // positions, and at each position the layers are granted highest first.
  // Requests are bits in those masks, per (output, priority class): walking
  // set bits of the masks rotated by va_rr_[out] visits requests in grant
  // order with no sort.
  constexpr std::size_t kLayers = 2;  // num_vcs <= 12, so v / 8 <= 1
  constexpr std::size_t kPrioClasses = 3;
  using LayerMasks = std::array<std::uint64_t, kLayers>;
  // Only the rows of outputs in `outs` are cleared (on their first request)
  // and read.
  std::array<std::array<LayerMasks, kPrioClasses>, kNumPorts> requests;
  std::uint32_t outs = 0;  // outputs with at least one request
  std::uint64_t n_requests = 0;
  for (std::uint64_t mask = alloc_; mask != 0; mask &= mask - 1) {
    const auto i = static_cast<std::size_t>(std::countr_zero(mask));
    const VirtualChannel& ch = input_[i];
    if (now <= ch.head_arrival) continue;  // stage-2 pipeline constraint
    const std::size_t out = idx(ch.out_port);
    if ((outs & (1u << out)) == 0) {
      outs |= 1u << out;
      requests[out] = {};
    }
    const VcId vid = vc_of_bit_[i];
    requests[out][ch.head_prio][vid.vc >> 3] |=
        1ULL << (static_cast<std::uint32_t>(vid.port) * 8u + vid.vc);
    ++n_requests;
  }
  stats_.alloc_ops += n_requests;

  // Grants (p, v) the first free downstream VC of its vnet on `out`.
  auto grant = [&](std::size_t out, std::size_t p, std::uint32_t v) {
    const std::size_t i = p * num_vcs_ + v;
    VirtualChannel& ch = input_[i];
    const std::size_t lo = out * num_vcs_ + ch.head_vnet * cfg_.vcs_per_vnet;
    for (std::size_t slot = lo; slot < lo + cfg_.vcs_per_vnet; ++slot) {
      if (out_vc_taken_[slot] != 0) continue;
      out_vc_taken_[slot] = 1;
      ch.out_slot = static_cast<std::uint8_t>(slot);
      ch.out_vc = static_cast<std::uint8_t>(slot - out * num_vcs_);
      set_stage(i, VcStage::Active);
      if (tracer_ != nullptr)
        tracer_->emit(now, id_, trace::Event::VcAllocGrant,
                      static_cast<std::uint8_t>(p), static_cast<std::uint8_t>(v),
                      ch.head_raw()->id,
                      static_cast<std::int64_t>((out << 8) | ch.out_vc));
      return true;
    }
    return false;
  };

  const std::uint32_t layers = (num_vcs_ + 7) / 8;
  for (; outs != 0; outs &= outs - 1) {
    const auto out = static_cast<std::size_t>(std::countr_zero(outs));
    const std::uint32_t rr = va_rr_[out];
    bool granted_any = false;
    for (const LayerMasks& m : requests[out]) {
      std::uint64_t keys = m[0];
      if (layers > 1) keys |= m[1];
      for (std::uint64_t r = std::rotr(keys, static_cast<int>(rr)); r != 0; r &= r - 1) {
        const std::uint32_t key = (static_cast<std::uint32_t>(std::countr_zero(r)) + rr) & 63u;
        for (std::uint32_t layer = layers; layer-- > 0;) {
          if (((m[layer] >> key) & 1u) != 0)
            granted_any |= grant(out, (key >> 3) - layer, (layer << 3) | (key & 7u));
        }
      }
    }
    if (granted_any) va_rr_[out] = (va_rr_[out] + 1) & 63u;
  }
}

[[gnu::always_inline]] inline void Router::lose(std::size_t i, SaInputs& in) {
  // Losers always hold flits: a VcAlloc loser was checked, an Active one
  // passed the SA eligibility test, and only winners traverse.
  assert(in.n_lost < lost_.size());
  lost_[in.n_lost++] = static_cast<std::uint8_t>(i);
  ++input_[i].buffer.front().pkt->idle_cycles;
}

[[gnu::always_inline]] inline void Router::sa_inputs(Cycle now, SaInputs& in) {
  // One candidate VC per input port. The VCs in VcAlloc or Active are
  // visited port by port, in (port, VC) order; each port's winner's input
  // bit goes into the mask of the output it chose.
  const VirtualChannel* const vcs = input_.data();
  for (std::uint64_t mask = alloc_ | active_; mask != 0;) {
    const std::size_t p = idx(vc_of_bit_[std::countr_zero(mask)].port);
    const std::uint64_t bits = mask & port_bits_[p];
    mask &= ~bits;
    const std::uint32_t rr = sa_in_rr_[p];  // absolute bit index
    int best = -1;
    std::uint32_t best_prio = 0;
    std::uint32_t best_rr = 0;
    for (std::uint64_t b = bits; b != 0; b &= b - 1) {
      const auto i = static_cast<std::uint32_t>(std::countr_zero(b));
      const VirtualChannel& ch = vcs[i];
      if (ch.stage == VcStage::VcAlloc) {
        // VA-blocked packets are also idling candidates for DISCO.
        if (!ch.buffer.empty() && now > ch.head_arrival) lose(i, in);
        continue;
      }
      // Output link severed by a hard fault mid-allocation; the kill scrub
      // resets or condemns this VC before forwarding could resume, so this
      // only guards the same-cycle window. Never fires on a healthy mesh (XY
      // stays on-mesh, and a live router's Local output is always wired).
      if (ch.buffer.empty() || out_flit_[idx(ch.out_port)] == nullptr ||
          ch.buffer.front().arrival + 2 > now)
        continue;
      // Wormhole forwards flit by flit; virtual cut-through (section 3.3A)
      // only starts a packet when the downstream VC can hold all of it, so
      // packets always sit whole in one node.
      std::uint32_t needed_credits = 1;
      if (cfg_.flow_control == FlowControl::VirtualCutThrough && ch.sent_flits == 0)
        needed_credits = ch.head_flits;
      if (credits_[ch.out_slot] < needed_credits) {
        lose(i, in);
        continue;
      }
      const std::uint32_t prio = ch.head_prio;
      const std::uint32_t rr_pos = i >= rr ? i - rr : i + num_vcs_ - rr;
      if (best < 0 || prio < best_prio || (prio == best_prio && rr_pos < best_rr)) {
        if (best >= 0) lose(static_cast<std::size_t>(best), in);
        best = static_cast<int>(i);
        best_prio = prio;
        best_rr = rr_pos;
      } else {
        lose(i, in);
      }
    }
    if (best < 0) continue;
    ++stats_.alloc_ops;
    const std::size_t out = idx(vcs[best].out_port);
    in.chosen[p] = static_cast<std::uint8_t>(best);
    in.prio[p] = static_cast<std::uint8_t>(best_prio);
    in.inputs_for[out] |= 1u << p;
    in.outs |= 1u << out;
  }
}

[[gnu::always_inline]] inline std::size_t Router::sa_output(std::size_t out,
                                                            SaInputs& in) {
  // One input per chosen output, visiting the inputs that chose it in
  // ascending port order. A lone input wins outright.
  const std::uint32_t inputs = in.inputs_for[out];
  if ((inputs & (inputs - 1)) == 0) {
    const auto p = static_cast<std::uint32_t>(std::countr_zero(inputs));
    sa_out_rr_[out] = p + 1 == kNumPorts ? 0 : p + 1;
    return p;
  }
  const std::uint32_t rr = sa_out_rr_[out];
  std::uint32_t best_in = kNumPorts;
  std::uint32_t best_prio = 0;
  std::uint32_t best_rr = 0;
  for (std::uint32_t ins = inputs; ins != 0; ins &= ins - 1) {
    const auto p = static_cast<std::uint32_t>(std::countr_zero(ins));
    const std::uint32_t prio = in.prio[p];  // computed on the same head in stage 1
    const std::uint32_t rr_pos = p >= rr ? p - rr : p + kNumPorts - rr;
    if (best_in == kNumPorts || prio < best_prio ||
        (prio == best_prio && rr_pos < best_rr)) {
      if (best_in != kNumPorts) lose(in.chosen[best_in], in);
      best_in = p;
      best_prio = prio;
      best_rr = rr_pos;
    } else {
      lose(in.chosen[p], in);
    }
  }
  sa_out_rr_[out] = best_in + 1 == kNumPorts ? 0 : best_in + 1;
  return best_in;
}

[[gnu::always_inline]] inline void Router::traverse(std::size_t p, std::size_t i,
                                                    std::size_t out, Cycle now) {
  VirtualChannel& ch = input_[i];
  const std::uint8_t vc = vc_of_bit_[i].vc;
  did_work_ = true;
  const std::uint32_t next_rr = static_cast<std::uint32_t>(i) + 1;
  sa_in_rr_[p] = (port_bits_[p] >> next_rr) & 1u
                     ? next_rr
                     : static_cast<std::uint32_t>(p) * num_vcs_;

  Flit& f = ch.buffer.front();
  const bool tail = f.seq + 1 == ch.head_flits;
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
                    static_cast<std::uint8_t>(p), vc, f.pkt->id,
                    trace::st_arg(tail, static_cast<std::uint8_t>(out),
                                  ch.out_vc, f.seq));
    out_flit_[out]->push(now, std::move(f));
    ++stats_.crossbar_traversals;
    ++stats_.link_flits;
    assert(credits_[ch.out_slot] > 0);
    --credits_[ch.out_slot];
  }
  ch.buffer.pop_front();
  // A dropped flit still frees its input buffer slot, so the upstream
  // credit must be returned either way (credit conservation).
  send_credit_for_pop(ch, p, vc, now);

  ++ch.sent_flits;
  if (ch.engine_busy && ch.sent_flits == 1 && ext_ != nullptr) {
    ext_->on_shadow_departed(now, vc_of_bit_[i]);
  }
  if (tail) {
    out_vc_taken_[ch.out_slot] = 0;
    set_stage(i, VcStage::Idle);
    ch.sent_flits = 0;
    ch.active_pkt.reset();
  }
}

void Router::tick(Cycle now) {
  did_work_ = false;
  receive_credits(now);
  receive_flits(now);
  route_compute(now);
  vc_allocate(now);

  // Switch allocation, then traversal. Eligible work that cannot move this
  // cycle is recorded as it is found (stage 1, then stage 2 output by
  // output); the extension reads the list after traversal.
  SaInputs in;
  sa_inputs(now, in);
  for (std::uint32_t o = in.outs; o != 0; o &= o - 1) {
    const auto out = static_cast<std::size_t>(std::countr_zero(o));
    const std::size_t p = sa_output(out, in);
    traverse(p, in.chosen[p], out, now);
  }
  stats_.sa_idle_losses += in.n_lost;

  if (ext_ != nullptr) {
    if (in.n_lost != 0) {
      losers_scratch_.clear();
      for (std::uint32_t k = 0; k < in.n_lost; ++k)
        losers_scratch_.push_back(vc_of_bit_[lost_[k]]);
      ext_->after_allocation(now, losers_scratch_);
    }
    ext_->tick(now);
  }
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
  for (std::uint64_t mask = occupied_; mask != 0; mask &= mask - 1) {
    const auto i = static_cast<std::size_t>(std::countr_zero(mask));
    const VirtualChannel& ch = input_[i];
    if (ch.stage == VcStage::Idle || ch.buffer.empty()) continue;
    if (ch.out_port != out) continue;
    if (vc_of_bit_[i] == self) continue;
    ++n;
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
  ch.head_flits = new_count;
  ch.head_prio = static_cast<std::uint8_t>(
      priority_class(*pkt, cfg_.deprioritize_compressible));
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
      send_credit_for_pop(ch, idx(v.port), v.vc, now);
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
        if (credits_[ch.out_slot] == 0) ++c.blocked_vcs;
      }
    }
  }
}

bool Router::quiescent() const { return total_buffered_flits() == 0; }

bool Router::stage_masks_consistent() const {
  for (std::size_t i = 0; i < input_.size(); ++i) {
    const VirtualChannel& ch = input_[i];
    const std::uint64_t b = std::uint64_t{1} << i;
    if ((!ch.buffer.empty() || ch.stage != VcStage::Idle) && (occupied_ & b) == 0)
      return false;
    if (((alloc_ & b) != 0) != (ch.stage == VcStage::VcAlloc)) return false;
    if (((active_ & b) != 0) != (ch.stage == VcStage::Active)) return false;
    const Packet* owner = ch.sent_flits > 0 ? ch.active_pkt.get() : ch.head_raw();
    if (ch.stage != VcStage::Idle && owner != nullptr &&
        (ch.head_flits != owner->flit_count() ||
         ch.head_prio != priority_class(*owner, cfg_.deprioritize_compressible) ||
         ch.head_vnet != static_cast<std::uint8_t>(owner->vnet)))
      return false;
  }
  return ((occupied_ | alloc_ | active_) >> input_.size()) == 0;
}

bool Router::can_sleep() const {
  // Fast path: a tick that received or forwarded anything left state behind
  // that the scan below would find anyway (non-empty buffers, active VCs).
  // Saying "no" without scanning is always safe — the only cost is at most
  // one extra awake no-op tick, which touches no stats or traces (elision
  // telemetry is deliberately excluded from both).
  if (did_work_) return false;
  // Anything still in flight on an input wire needs a tick to be received,
  // even though the push already raised the pending-wake flag. Every
  // non-empty wire has its bit set.
  if ((flit_wires_[0] | flit_wires_[1] | credit_wires_[0] | credit_wires_[1]) != 0)
    return false;
  // Occupied VCs all have their bit set (conservative superset), so only
  // set bits need inspecting. no_pending_work() below deliberately keeps
  // the full scan so traced runs cross-check this shortcut.
  for (std::uint64_t mask = occupied_; mask != 0; mask &= mask - 1) {
    const VirtualChannel& ch = input_[static_cast<std::size_t>(std::countr_zero(mask))];
    if (ch.stage != VcStage::Idle || !ch.buffer.empty() || ch.sent_flits != 0 ||
        ch.engine_busy)
      return false;
  }
  // credit_debt with an empty buffer is safe to sleep on: the debt is only
  // ever settled against credits arriving on a wire, which wakes us.
  return ext_ == nullptr || ext_->idle();
}

bool Router::no_pending_work(Cycle now) const {
  for (std::size_t p = 0; p < kNumPorts; ++p) {
    if (in_flit_[p].ready(now) || in_credit_[p].ready(now)) return false;
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
  push_credit(p, f.vc_tag, now);
  if (tracer_ != nullptr)
    tracer_->emit(now, id_, trace::Event::TopoFlitsKilled,
                  static_cast<std::uint8_t>(p), f.vc_tag, pkt->id, 1);
  return true;
}

void Router::disconnect_port(Port p) {
  assert(in_flit_[idx(p)].empty() && "severed flit wire not drained");
  in_credit_[idx(p)].clear();  // credit wires die with the data wires
  for (std::size_t s = 0; s < 2; ++s) {
    flit_wires_[s] &= ~(1u << idx(p));
    credit_wires_[s] &= ~(1u << idx(p));
  }
  out_flit_[idx(p)] = nullptr;
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
  for (std::size_t i = 0; i < input_.size(); ++i) {
    VirtualChannel& ch = input_[i];
    const VcId vid = vc_of_bit_[i];
    // Reset the pipeline state if the packet owning it is condemned.
    const PacketPtr owner = ch.sent_flits > 0 ? ch.active_pkt : ch.head_packet();
    if (ch.stage != VcStage::Idle && owner != nullptr &&
        condemned_->count(owner->id) > 0) {
      if (ch.engine_busy && ext_ != nullptr)
        ext_->on_shadow_departed(now, vid);  // abort the engine's copy
      if (ch.stage == VcStage::Active) out_vc_taken_[ch.out_slot] = 0;
      set_stage(i, VcStage::Idle);
      ch.sent_flits = 0;
      ch.active_pkt.reset();
      if (tracer_ != nullptr)
        tracer_->emit(now, id_, trace::Event::TopoVcReset,
                      static_cast<std::uint8_t>(vid.port), vid.vc, owner->id, 0);
    }
    // Destroy every buffered flit of any condemned packet (head or a
    // queued run behind it). Per-flit credit returns keep conservation:
    // expansion debt is absorbed first, exactly as normal pops would.
    for (auto it = ch.buffer.begin(); it != ch.buffer.end();) {
      if (condemned_->count(it->pkt->id) > 0) {
        it = ch.buffer.erase(it);
        ++killed;
        send_credit_for_pop(ch, idx(vid.port), vid.vc, now);
      } else {
        ++it;
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
  for (std::size_t i = 0; i < input_.size(); ++i) {
    VirtualChannel& ch = input_[i];
    if (ch.stage == VcStage::Idle || ch.sent_flits > 0) continue;
    if (ch.stage == VcStage::Active) out_vc_taken_[ch.out_slot] = 0;
    set_stage(i, VcStage::Idle);
    ch.active_pkt.reset();
    // engine_busy survives: the compression still targets the head
    // packet, which re-routes in place under the new tables.
    if (tracer_ != nullptr)
      tracer_->emit(now, id_, trace::Event::TopoVcReset,
                    static_cast<std::uint8_t>(vc_of_bit_[i].port), vc_of_bit_[i].vc,
                    ch.head_packet() ? ch.head_packet()->id : 0, 0);
  }
}

std::uint64_t Router::drain_dead(std::vector<PacketPtr>& inflight, Cycle now) {
  std::uint64_t killed = 0;
  for (std::size_t i = 0; i < input_.size(); ++i) {
    VirtualChannel& ch = input_[i];
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
    set_stage(i, VcStage::Idle);
    ch.sent_flits = 0;
    ch.credit_debt = 0;
    ch.engine_busy = false;
    ch.active_pkt.reset();
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

}  // namespace disco::noc
