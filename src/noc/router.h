// Three-stage virtual-channel wormhole router (Table 2): stage 1 buffer
// write + route computation, stage 2 VC allocation + switch allocation,
// stage 3 switch/link traversal. Credit-based flow control per VC, three
// virtual networks for protocol deadlock freedom, separable round-robin
// allocators with the paper's priority classes.
//
// The router exposes an introspection/extension interface (RouterExtension)
// through which the DISCO unit observes allocation losers, reads the
// credit/occupancy signals of Fig. 3, and swaps a packet's flits in place
// when a de/compression completes.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/config.h"
#include "fault/fault.h"
#include "noc/link.h"
#include "noc/noc_stats.h"
#include "noc/routing.h"
#include "noc/topology.h"
#include "noc/vc.h"
#include "trace/trace.h"

namespace disco::noc {

class Router;

/// Structural snapshot of why a network might not be making progress, taken
/// by the no-progress watchdog when it trips. Aggregated over all routers
/// (and, at the Network level, NIs) so the failure report can distinguish a
/// credit deadlock (blocked active VCs) from allocation starvation (VCs
/// parked in VcAlloc) from sources that cannot inject at all.
struct StallCensus {
  std::uint64_t buffered_flits = 0;     ///< flits sitting in router input VCs
  std::uint32_t active_vcs = 0;         ///< VCs granted a downstream VC
  std::uint32_t blocked_vcs = 0;        ///< active VCs with zero downstream credits
  std::uint32_t waiting_alloc_vcs = 0;  ///< VCs stuck waiting for a VC grant
  std::uint64_t pending_injections = 0; ///< packets queued at NIs, not yet in-network
};

/// Hook interface for in-router machinery (the DISCO arbitrator + engines).
/// Called by the router at fixed points of its pipeline each cycle.
class RouterExtension {
 public:
  virtual ~RouterExtension() = default;
  /// After VA/SA, on a tick with at least one loser: `losers` are the VCs
  /// that requested allocation and lost.
  virtual void after_allocation(Cycle now, const std::vector<VcId>& losers) = 0;
  /// A shadow packet's first flit departed while an engine held its copy.
  virtual void on_shadow_departed(Cycle now, const VcId& vc) = 0;
  /// Advance engines (completions applied here).
  virtual void tick(Cycle now) = 0;
  /// The tile's compression hardware suffered a permanent fault: abort any
  /// in-flight operations and refuse all future work. Default: no hardware
  /// to lose (plain schemes).
  virtual void on_hard_fault(Cycle now) { static_cast<void>(now); }
  /// Idle elision: true when skipping this extension's tick would be a
  /// no-op (no engine mid-operation, no deferred work). Default: stateless.
  virtual bool idle() const { return true; }
  /// The tile's engine was taken out of service (a hard fault or a
  /// self-quarantine): the NI's source-queue compression, which runs on
  /// the same engine, stops too. Default: nothing to lose.
  virtual bool out_of_service() const { return false; }
};

class Router {
 public:
  Router(NodeId id, const MeshShape& mesh, const NocConfig& cfg, NocStats& stats);
  // Senders hold pointers to this router's input wires, which hold
  // pointers to its wire masks.
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  NodeId id() const { return id_; }
  const NocConfig& config() const { return cfg_; }
  const MeshShape& mesh() const { return mesh_; }

  /// Wiring (done by Network). Input wires are members of this router and
  /// senders push on them through these pointers; each push raises `flag`,
  /// this router's pending-wake flag. Null output links mean no neighbour
  /// (mesh edge).
  void set_wake_flag(std::uint8_t* flag) {
    for (FlitLink& w : in_flit_) w.set_wake(flag);
    for (CreditLink& w : in_credit_) w.set_wake(flag);
  }
  FlitLink* in_flit_wire(Port p) { return &in_flit_[idx(p)]; }
  CreditLink* in_credit_wire(Port p) { return &in_credit_[idx(p)]; }
  void connect_out_flit(Port p, FlitLink* link) { out_flit_[idx(p)] = link; }
  void connect_out_credit(Port p, CreditLink* link) { out_credit_[idx(p)] = link; }

  void set_extension(RouterExtension* ext) { ext_ = ext; }

  /// Attach the system's fault injector (link bit flips / flit drops at ST).
  void set_fault_injector(fault::FaultInjector* fi) { injector_ = fi; }

  /// Attach the system tracer (null = probes compile to a pointer check).
  void set_tracer(trace::Tracer* t) { tracer_ = t; }
  trace::Tracer* tracer() const { return tracer_; }

  // --- hard-fault support (wired by Network; inert until a kill) ---
  void set_topology(const Topology* t) { topo_ = t; }
  void set_condemned(const std::unordered_set<PacketId>* c) { condemned_ = c; }
  void set_doomed_callback(DoomedPacketFn fn) { doomed_cb_ = std::move(fn); }
  /// Arm the receive-time dead-flit filter (first kill in the system).
  void enter_degraded_mode() { degraded_ = true; }

  FlitLink* out_flit_link(Port p) const { return out_flit_[idx(p)]; }
  /// Sever all four wires of a port (the link died). The incoming flit
  /// wire must already be drained; the incoming credit wire is cleared.
  void disconnect_port(Port p);

  /// Mid-wormhole packets whose output link just died (state survives at
  /// this live router but the downstream path is gone).
  void collect_severed(std::vector<PacketPtr>& out) const;
  /// Every distinct packet with flits (or in-flight state) at this router.
  void collect_buffered_packets(std::vector<PacketPtr>& out) const;
  /// Destroy every buffered flit of a condemned packet and reset the
  /// pipeline state of VCs it owned. Returns flits destroyed.
  std::uint64_t scrub_condemned(Cycle now);
  /// Re-route VCs that have not sent a flit yet under the new tables.
  void reset_unsent_vcs(Cycle now);
  /// This router died: destroy all buffered flits, reporting every packet
  /// that had flits or in-flight state here. Returns flits destroyed.
  std::uint64_t drain_dead(std::vector<PacketPtr>& inflight, Cycle now);

  void tick(Cycle now);

  /// Idle elision: true when skipping this router's tick would be a no-op —
  /// every VC is empty and Idle, nothing is mid-wormhole, no engine holds a
  /// shadow here, and no flit or credit sits on an incoming wire. The
  /// network only re-ticks a sleeping router once one of its input links
  /// raises the pending-wake flag.
  bool can_sleep() const;

  /// Idle-elision invariant predicate: true when this router has no work
  /// visible at `now` — skipping its tick this cycle was provably a no-op.
  /// Unlike can_sleep() it ignores in-flight wire entries that only become
  /// visible after `now` (their push already raised the pending-wake flag).
  bool no_pending_work(Cycle now) const;

  // --- introspection API used by the DISCO unit (Fig. 3 signals) ---
  /// Mutable access may dirty the VC (engines rebuild flits in place, tests
  /// poke state directly), so it conservatively marks the VC occupied; the
  /// next route_compute pass drops bits whose VC is verifiably idle again.
  /// Callers must not write `stage`: the stage masks track it.
  VirtualChannel& vc(const VcId& v) {
    occupied_ |= std::uint64_t{1} << bit_index(v);
    return in_vc(idx(v.port), v.vc);
  }
  const VirtualChannel& vc(const VcId& v) const { return in_vc(idx(v.port), v.vc); }

  /// Remote pressure: occupied flit slots in the downstream router's input
  /// buffers for `out`, estimated from outstanding credits (credit_in).
  std::uint32_t downstream_occupancy(Port out) const;

  /// Local pressure: other input VCs currently routed to the same output
  /// (credit_out / VA state in the paper's confidence counter).
  std::uint32_t competing_vcs(Port out, const VcId& self) const;

  /// Remaining XY hops from this router to `dst` (RC_Hop in Eq. 2).
  std::uint32_t hops_to(NodeId dst) const { return mesh_.hops(id_, dst); }

  /// Rebuild the head packet's flits after its encoding changed (in-place
  /// de/compression). `old_flit_count` is the flit count before the change.
  /// Returns false if the packet is no longer eligible (departed/evicted).
  bool rebuild_head_packet(const VcId& v, std::uint32_t old_flit_count, Cycle now);

  /// Total buffered flits across all input VCs (diagnostics/energy leakage).
  std::uint64_t total_buffered_flits() const;
  /// Flits in flight on this router's input wires.
  std::uint64_t wire_flits() const {
    std::uint64_t n = 0;
    for (const FlitLink& w : in_flit_) n += w.size();
    return n;
  }

  /// Accumulate this router's contribution to a stall census (watchdog).
  void stall_census(StallCensus& c) const;

  bool quiescent() const;

  /// Full-scan cross-check of the stage masks: every VC with flits or a
  /// non-Idle stage has its occupancy bit, the VcAlloc and Active masks
  /// hold exactly the VCs in those stages, and each non-Idle VC's latched
  /// head facts still match its packet. The invariant checker asserts it.
  bool stage_masks_consistent() const;

  /// Invariant check for drained networks: every non-ejection credit
  /// counter must be back at full buffer depth (no credit was leaked or
  /// double-returned by compression rebuilds), and no VC may still carry
  /// expansion debt.
  bool credits_quiescent() const;

 private:
  static constexpr std::size_t idx(Port p) { return static_cast<std::size_t>(p); }

  /// One tick's switch allocation state. Stage 1 fills, per input port,
  /// its winning VC (bit index) and that VC's priority, and per output the
  /// input ports whose winners chose it. Both stages record the allocation
  /// losers in lost_, in report order.
  struct SaInputs {
    std::array<std::uint8_t, kNumPorts> chosen{};
    std::array<std::uint8_t, kNumPorts> prio{};
    std::array<std::uint32_t, kNumPorts> inputs_for{};
    std::uint32_t outs = 0;  ///< outputs chosen by at least one input
    std::uint32_t n_lost = 0;
  };

  // Pipeline stages, in tick() order.
  void receive_credits(Cycle now);
  void receive_flits(Cycle now);
  void route_compute(Cycle now);
  void vc_allocate(Cycle now);
  /// SA stage 1: one candidate VC per input port.
  void sa_inputs(Cycle now, SaInputs& in);
  /// SA stage 2: the winning input port of output `out`.
  std::size_t sa_output(std::size_t out, SaInputs& in);
  /// Switch traversal of input VC `i` (input port `p`) to output `out`.
  void traverse(std::size_t p, std::size_t i, std::size_t out, Cycle now);
  /// Record input VC `i` as an allocation loser idling this cycle.
  void lose(std::size_t i, SaInputs& in);

  /// A flit left input VC `ch` (VC `vc` of port `p`): return its slot
  /// upstream, unless the slot pays back debt from an earlier in-place
  /// expansion.
  void send_credit_for_pop(VirtualChannel& ch, std::size_t p, std::uint8_t vc,
                           Cycle now) {
    if (ch.credit_debt > 0) {
      --ch.credit_debt;  // absorb the slot consumed by an earlier expansion
      return;
    }
    push_credit(p, vc, now);
  }
  /// Send one credit for VC `vc` back up input port `p`'s wire.
  void push_credit(std::size_t p, std::uint8_t vc, Cycle now) {
    CreditLink* link = out_credit_[p];
    if (link == nullptr) return;
    link->push(now, vc);
    ++stats_.credits_sent;
    if (tracer_ != nullptr)
      tracer_->emit(now, id_, trace::Event::CreditSend,
                    static_cast<std::uint8_t>(p), vc, 0, 0);
  }

  /// The one writer of VirtualChannel::stage: keeps alloc_ / active_ exact.
  void set_stage(std::size_t i, VcStage s) {
    input_[i].stage = s;
    const std::uint64_t b = std::uint64_t{1} << i;
    alloc_ = s == VcStage::VcAlloc ? alloc_ | b : alloc_ & ~b;
    active_ = s == VcStage::Active ? active_ | b : active_ & ~b;
  }
  std::size_t bit_index(const VcId& v) const {
    return idx(v.port) * num_vcs_ + v.vc;
  }

  /// Degraded mode only: true if the arriving flit must be destroyed
  /// (condemned packet, or destination dead/unreachable from here). Returns
  /// the buffer slot's credit upstream.
  bool filter_dead_flit(const Flit& f, std::size_t p, Cycle now);

  NodeId id_;
  MeshShape mesh_;
  NocConfig cfg_;
  NocStats& stats_;

  /// All hot per-VC state lives in flat [port * num_vcs + vc] arrays: one
  /// contiguous block each for the VCs themselves, the downstream credit
  /// counters and the downstream VC ownership flags. At the default 6 VCs
  /// per port, input_ is 30 VCs of 64 bytes (1.9 KB). The two downstream
  /// arrays are sized for the widest router (5 ports x 12 VCs) and
  /// indexed by a VC's out_slot.
  std::vector<VirtualChannel> input_;
  /// Credits available for each downstream (out port, vc).
  std::array<std::uint32_t, 64> credits_{};
  /// Downstream VC ownership (held between VA grant and tail departure).
  std::array<std::uint8_t, 64> out_vc_taken_{};
  std::uint32_t num_vcs_ = 0;

  VirtualChannel& in_vc(std::size_t p, std::uint32_t v) {
    return input_[p * num_vcs_ + v];
  }
  const VirtualChannel& in_vc(std::size_t p, std::uint32_t v) const {
    return input_[p * num_vcs_ + v];
  }
  std::uint32_t& credit(std::size_t p, std::uint32_t v) {
    return credits_[p * num_vcs_ + v];
  }
  const std::uint32_t& credit(std::size_t p, std::uint32_t v) const {
    return credits_[p * num_vcs_ + v];
  }

  /// Input wires, consumed here; their senders hold pointers to them.
  std::array<FlitLink, kNumPorts> in_flit_;
  std::array<CreditLink, kNumPorts> in_credit_;
  std::array<FlitLink*, kNumPorts> out_flit_{};
  std::array<CreditLink*, kNumPorts> out_credit_{};

  // Round-robin pointers for fairness. sa_in_rr_[p] is a bit index inside
  // port p's block of VCs.
  std::array<std::uint32_t, kNumPorts> va_rr_{};
  std::array<std::uint32_t, kNumPorts> sa_in_rr_{};
  std::array<std::uint32_t, kNumPorts> sa_out_rr_{};
  /// Per input port: the mask of its VCs' bits.
  std::array<std::uint64_t, kNumPorts> port_bits_{};

  RouterExtension* ext_ = nullptr;
  fault::FaultInjector* injector_ = nullptr;
  trace::Tracer* tracer_ = nullptr;

  /// This tick's allocation losers as bit indices, in report order (each VC
  /// loses at most once per tick), and the same list as VcIds for an
  /// extension, reserved for every VC so a tick never reallocates.
  std::array<std::uint8_t, 64> lost_{};
  std::vector<VcId> losers_scratch_;

  /// Per-port input wire masks, one per slot parity: bit p of mask s set
  /// => in_flit_[p] / in_credit_[p] may hold an item in slot s. Set by
  /// every push on the wire; the receive stages drain the wires of mask
  /// now&1 and clear it, so they visit exactly the wires with an item
  /// visible this cycle. Derived state.
  std::array<std::uint32_t, 2> flit_wires_{};
  std::array<std::uint32_t, 2> credit_wires_{};

  /// Router-wide VC masks: bit i stands for input_[i], so walking set bits
  /// upward visits VCs in (port, VC) order. 5 ports x at most 12 VCs fit
  /// one word. occupied_: input_[i] *may* hold state (flits, a non-Idle
  /// stage, an engine shadow, credit debt); a conservative superset, set on
  /// every buffer write and mutable vc() access and cleared only by
  /// route_compute once the VC is back to reset state. alloc_ / active_:
  /// exactly the VCs in VcAlloc / Active, kept by set_stage(). RC walks
  /// occupied & ~(alloc | active), VA walks alloc, SA walks alloc | active,
  /// and can_sleep() and competing_vcs() walk occupied. Derived state: the
  /// invariant checker full-scans against it (stage_masks_consistent()).
  std::uint64_t occupied_ = 0;
  std::uint64_t alloc_ = 0;
  std::uint64_t active_ = 0;
  /// Bit index -> (port, VC), so the stage loops never divide.
  std::array<VcId, 64> vc_of_bit_{};

  /// True if this tick received or forwarded anything; can_sleep()'s fast
  /// path. Transient per-tick scratch.
  bool did_work_ = false;

  // Hard-fault state (all inert on the healthy path).
  const Topology* topo_ = nullptr;
  const std::unordered_set<PacketId>* condemned_ = nullptr;
  DoomedPacketFn doomed_cb_;
  bool degraded_ = false;
};

}  // namespace disco::noc
