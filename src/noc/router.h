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
#include "common/snapshot.h"
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
  /// After VA/SA: `losers` are VCs that requested allocation and lost.
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
  /// Snapshot of extension-private state (DISCO engines, thresholds), one
  /// override per archive. Default: stateless extension.
  virtual void visit(snap::Writer& w) { static_cast<void>(w); }
  virtual void visit(snap::Reader& r) { static_cast<void>(r); }
};

class Router {
 public:
  Router(NodeId id, const MeshShape& mesh, const NocConfig& cfg, NocStats& stats);

  NodeId id() const { return id_; }
  const NocConfig& config() const { return cfg_; }
  const MeshShape& mesh() const { return mesh_; }

  /// Wiring (done by Network). Null links mean no neighbour (mesh edge).
  void connect_in_flit(Port p, FlitLink* link) { in_flit_[idx(p)] = link; }
  void connect_out_flit(Port p, FlitLink* link) { out_flit_[idx(p)] = link; }
  void connect_in_credit(Port p, CreditLink* link) { in_credit_[idx(p)] = link; }
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
  FlitLink* in_flit_link(Port p) const { return in_flit_[idx(p)]; }
  CreditLink* out_credit_link(Port p) const { return out_credit_[idx(p)]; }
  CreditLink* in_credit_link(Port p) const { return in_credit_[idx(p)]; }
  /// Sever all four wires of a port (the link died).
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
  VirtualChannel& vc(const VcId& v) {
    busy_vcs_[idx(v.port)] |= 1u << v.vc;
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

  /// Accumulate this router's contribution to a stall census (watchdog).
  void stall_census(StallCensus& c) const;

  bool quiescent() const;

  /// Invariant check for drained networks: every non-ejection credit
  /// counter must be back at full buffer depth (no credit was leaked or
  /// double-returned by compression rebuilds), and no VC may still carry
  /// expansion debt.
  bool credits_quiescent() const;

  /// Snapshot of all mutable router state (VC buffers, credits, allocation
  /// round-robin pointers, degraded flag). Wires/links are serialized by the
  /// owning Network.
  template <class Ar>
  void visit(Ar& ar);

 private:
  static constexpr std::size_t idx(Port p) { return static_cast<std::size_t>(p); }

  void receive_credits(Cycle now);
  void receive_flits(Cycle now);
  void route_compute(Cycle now);
  void vc_allocate(Cycle now);
  void switch_allocate_and_traverse(Cycle now, std::vector<VcId>& losers);
  void send_credit_for_pop(const VcId& v, Cycle now);

  bool sa_eligible(const VirtualChannel& ch, Cycle now) const;

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
  /// counters and the downstream VC ownership flags. The previous
  /// array-of-vectors layout (5 heap blocks per structure, vector<bool>
  /// bit twiddling for ownership) scattered a busy router's working set
  /// over dozens of cache lines; flattened, the whole thing is ~3 KB and
  /// the RC/VA/SA stages run L1-resident.
  std::vector<VirtualChannel> input_;
  /// Credits available for each downstream (out port, vc).
  std::vector<std::uint32_t> credits_;
  /// Downstream VC ownership (held between VA grant and tail departure).
  std::vector<std::uint8_t> out_vc_taken_;
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
  std::uint8_t& taken(std::size_t p, std::uint32_t v) {
    return out_vc_taken_[p * num_vcs_ + v];
  }

  std::array<FlitLink*, kNumPorts> in_flit_{};
  std::array<FlitLink*, kNumPorts> out_flit_{};
  std::array<CreditLink*, kNumPorts> in_credit_{};
  std::array<CreditLink*, kNumPorts> out_credit_{};

  // Round-robin pointers for fairness.
  std::array<std::uint32_t, kNumPorts> va_rr_{};
  std::array<std::uint32_t, kNumPorts> sa_in_rr_{};
  std::array<std::uint32_t, kNumPorts> sa_out_rr_{};

  RouterExtension* ext_ = nullptr;
  fault::FaultInjector* injector_ = nullptr;
  trace::Tracer* tracer_ = nullptr;

  /// A VC-allocation request with its sort keys precomputed at collection
  /// time, so the allocator's sort never dereferences packets.
  struct VaReq {
    VcId id;
    int prio = 0;          ///< priority_class of the head packet
    std::uint32_t rr = 0;  ///< round-robin distance from va_rr_[out]
  };

  // Per-tick scratch, kept as members so the hot loop never reallocates.
  std::vector<VcId> losers_scratch_;
  std::array<std::vector<VaReq>, kNumPorts> va_requests_;
  std::vector<VcId> sa_stalled_;

  /// Per-port VC occupancy bitmask: bit v set => input_[p][v] *may* hold
  /// state (flits, a non-Idle stage, an engine shadow, credit debt). A
  /// conservative superset: bits are set on every buffer write and every
  /// mutable vc() access, and cleared only by route_compute once the VC is
  /// verifiably back to reset state. The RC/VA/SA pipeline loops and
  /// can_sleep() iterate set bits only — most of a lightly loaded router's
  /// 30 VCs are empty, and scanning them dominated the tick profile.
  /// Rebuilt pessimistically (all bits set) after a snapshot restore.
  /// Not simulated state: never serialized, never affects behaviour — the
  /// invariant checker's no_pending_work() deliberately ignores it and
  /// full-scans, so a wrongly cleared bit fails traced runs loudly.
  std::array<std::uint32_t, kNumPorts> busy_vcs_{};
  std::uint32_t vc_mask_ = 0;  ///< (1 << num_vcs) - 1

  /// True if this tick received or forwarded anything; can_sleep()'s fast
  /// path. Transient per-tick scratch, never serialized (a restored router
  /// is woken by wake_all() regardless).
  bool did_work_ = false;

  // Hard-fault state (all inert on the healthy path).
  const Topology* topo_ = nullptr;
  const std::unordered_set<PacketId>* condemned_ = nullptr;
  DoomedPacketFn doomed_cb_;
  bool degraded_ = false;
};

}  // namespace disco::noc
