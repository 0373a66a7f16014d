// The mesh network: owns routers and NIs and wires them together. The DISCO
// in-router machinery is attached through an extension factory so this
// module stays independent of src/disco.
#pragma once

#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/config.h"
#include "noc/ni.h"
#include "noc/router.h"
#include "noc/topology.h"
#include "trace/invariants.h"

namespace disco::noc {

class Network {
 public:
  using ExtensionFactory =
      std::function<std::unique_ptr<RouterExtension>(Router&)>;

  /// `make_extension` may be null (plain routers: Baseline/CC/CNC/Ideal).
  Network(const NocConfig& cfg, NiPolicy ni_policy, NocStats& stats,
          const ExtensionFactory& make_extension = nullptr);

  const MeshShape& mesh() const { return mesh_; }
  const NocConfig& config() const { return cfg_; }

  Router& router(NodeId n) { return *routers_[n]; }
  NetworkInterface& ni(NodeId n) { return *nis_[n]; }

  void register_sink(NodeId n, UnitKind unit, PacketSink* sink) {
    nis_[n]->register_sink(unit, sink);
  }

  void inject(NodeId n, PacketPtr pkt, Cycle now) { nis_[n]->inject(std::move(pkt), now); }

  /// Attach the system's fault injector to every router and NI.
  void set_fault_injector(fault::FaultInjector* fi) {
    for (auto& r : routers_) r->set_fault_injector(fi);
    for (auto& ni : nis_) ni->set_fault_injector(fi);
  }

  /// Attach the system tracer to every router and NI.
  void set_tracer(trace::Tracer* t) {
    tracer_ = t;
    for (auto& r : routers_) r->set_tracer(t);
    for (auto& ni : nis_) ni->set_tracer(t);
  }

  // --- permanent (hard) faults ---
  const Topology& topology() const { return topo_; }
  bool node_dead(NodeId n) const { return node_dead_[n] != 0; }
  RouterExtension* extension(NodeId n) {
    return extensions_.empty() ? nullptr : extensions_[n].get();
  }

  /// System-layer callback for packets that provably cannot be delivered
  /// (used to synthesize protocol completions). Deduplicated per original
  /// packet id, so clone chains resolve exactly once.
  void set_unreachable_handler(DoomedPacketFn h) { unreachable_ = std::move(h); }

  /// Apply one scheduled hard fault. Returns false if the target was
  /// already dead (the fault is a no-op).
  bool apply_hard_fault(const HardFaultEvent& e, Cycle now);
  bool kill_router(NodeId n, Cycle now);
  bool kill_link(NodeId n, Port dir, Cycle now);
  bool kill_engine(NodeId n, Cycle now);
  bool kill_bank(NodeId n, Cycle now);

  /// Structural flit census: flits buffered in routers plus flits in flight
  /// on links (the invariant checker reconciles this against the injected /
  /// ejected event counts every cycle).
  std::uint64_t inflight_flits() const {
    std::uint64_t n = wire_flits();
    for (const auto& r : routers_) n += r->total_buffered_flits();
    return n;
  }

  /// Packets queued at NIs that have not entered the network yet (watchdog:
  /// distinguishes starved sources from an in-network deadlock).
  std::uint64_t pending_injections() const {
    std::uint64_t n = 0;
    for (const auto& ni : nis_) n += ni->pending_injections();
    return n;
  }

  /// Structural stall snapshot over every router plus the NI inject queues;
  /// link-resident flits are folded into buffered_flits so the census agrees
  /// with inflight_flits(). Taken by the no-progress watchdog when it trips.
  StallCensus stall_census() const;

  /// Advance one cycle. Call once per cycle with consecutive `now`
  /// values after the first call (asserted): the wires' parity slots hold
  /// an item for exactly the one cycle it is visible. When the tracer
  /// carries an invariant checker, the tick ends with its end_of_cycle.
  void tick(Cycle now);

  /// Idle elision: force every live component to tick on the next cycle.
  /// Called after any out-of-band state mutation (hard-fault kills) whose
  /// wake pushes predate the wiring of the flags.
  void wake_all();

  /// Idle elision telemetry: component ticks skipped so far (not part of
  /// the simulated state, never exported).
  std::uint64_t router_ticks_elided() const { return router_ticks_elided_; }
  std::uint64_t ni_ticks_elided() const { return ni_ticks_elided_; }

  /// True when no flit is buffered or in flight anywhere.
  bool quiescent() const;

  /// True when every router's credit counters are back at full depth
  /// (call only when quiescent(); verifies credit conservation across all
  /// in-flight compressions/expansions of the run).
  bool credits_quiescent() const;

 private:
  /// Flits in flight on every wire (router inputs and NI ejection).
  std::uint64_t wire_flits() const;
  void note_doomed(const PacketPtr& pkt, Cycle now);
  void enter_degraded();
  bool doomed_from(NodeId at, const Packet& p) const;
  void drain_directed_link(Router& from, Port dir,
                           std::vector<PacketPtr>& severed, Cycle now);
  void sever_undirected_link(NodeId n, Port dir,
                             std::vector<PacketPtr>& severed, Cycle now);
  /// Common kill tail: find severed/doomed in-flight packets, condemn them,
  /// scrub every live router, re-route unsent VCs, purge NI queues.
  void finish_topology_kill(std::vector<PacketPtr> severed, Cycle now,
                            bool routes_changed);
  /// Traced runs only, once per tick: the checker's flit reconciliation
  /// (when the tracer carries one), and the idle-elision invariant: every
  /// component whose tick was skipped this cycle had no pending work. Cold,
  /// so the untraced tick keeps its code size.
  [[gnu::cold]] void check_invariants(Cycle now) const;

  MeshShape mesh_;
  NocConfig cfg_;
  NocStats& stats_;
  Topology topo_;

  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<std::unique_ptr<NetworkInterface>> nis_;
  std::vector<std::unique_ptr<RouterExtension>> extensions_;
  static constexpr Cycle kNever = ~Cycle{0};
  Cycle last_tick_ = kNever;  ///< last cycle ticked (kNever before the first)

  // Idle-elision state. Slot i is router i; slot num_nodes+i is NI i. A
  // component ticks on a cycle iff its pending-wake flag was raised since
  // the last cycle (link push, NI inject, wake_all, or the component itself
  // after a tick when it could not sleep). Flags are latched — copied to
  // run_ and cleared — for ALL components before ANY component ticks, so a
  // push made during cycle t (visible at t+1) can never be consumed by the
  // same cycle's latch and lost. Not simulated state.
  std::vector<std::uint8_t> pending_wake_;
  std::vector<std::uint8_t> run_;  ///< this cycle's latched flags (scratch)
  std::uint64_t router_ticks_elided_ = 0;
  std::uint64_t ni_ticks_elided_ = 0;

  // Hard-fault state (all inert on the healthy path).
  trace::Tracer* tracer_ = nullptr;
  DoomedPacketFn unreachable_;
  bool degraded_ = false;
  std::vector<std::uint8_t> node_dead_;  ///< bytes: read every tick
  /// Packets cut apart by a kill: their remaining flits are destroyed
  /// wherever they surface. Kept for the rest of the run (stragglers can
  /// arrive arbitrarily late through 1-cycle links).
  std::unordered_set<PacketId> condemned_;
  /// Original ids already routed through the unreachable handler.
  std::unordered_set<PacketId> resolved_;
};

/// Invariant-checker parameters for a mesh built from `cfg` whose
/// confidence events use the Eq. 2 distance coefficient of `disco`.
trace::InvariantParams invariant_params(const NocConfig& cfg,
                                        const DiscoConfig& disco);

}  // namespace disco::noc
