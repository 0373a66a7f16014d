#include "noc/network.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace disco::noc {
namespace {

Port opposite(Port p) { return opposite_port(p); }

}  // namespace

Network::Network(const NocConfig& cfg, NiPolicy ni_policy, NocStats& stats,
                 const ExtensionFactory& make_extension)
    : mesh_{cfg.mesh_cols, cfg.mesh_rows}, cfg_(cfg), stats_(stats),
      topo_(mesh_) {
  const std::uint32_t n = mesh_.num_nodes();
  routers_.reserve(n);
  nis_.reserve(n);
  for (NodeId node = 0; node < n; ++node) {
    routers_.push_back(std::make_unique<Router>(node, mesh_, cfg_, stats_));
    nis_.push_back(std::make_unique<NetworkInterface>(node, cfg_, ni_policy, stats_));
  }

  // Idle elision: everyone starts awake; the flag vectors are sized once
  // here and never resized (wires hold raw pointers into them).
  pending_wake_.assign(2 * n, 1);
  run_.assign(2 * n, 0);

  // Every wire is a member of its consumer, which it wakes on push. One
  // flit wire + one (reverse) credit wire per directed neighbour edge,
  // wired once from the sender's side.
  for (NodeId node = 0; node < n; ++node) {
    routers_[node]->set_wake_flag(&pending_wake_[node]);
    nis_[node]->set_wake_flag(&pending_wake_[n + node]);
    for (Port dir : {Port::North, Port::South, Port::East, Port::West}) {
      const NodeId nb = mesh_.neighbor(node, dir);
      if (nb == kInvalidNode) continue;
      routers_[node]->connect_out_flit(dir, routers_[nb]->in_flit_wire(opposite(dir)));
      routers_[nb]->connect_out_credit(opposite(dir), routers_[node]->in_credit_wire(dir));
    }

    // NI <-> router local port.
    nis_[node]->connect_to_router(routers_[node]->in_flit_wire(Port::Local));
    routers_[node]->connect_out_flit(Port::Local, nis_[node]->eject_wire());
    routers_[node]->connect_out_credit(Port::Local, nis_[node]->credit_wire());
  }

  if (make_extension) {
    extensions_.reserve(n);
    for (NodeId node = 0; node < n; ++node) {
      extensions_.push_back(make_extension(*routers_[node]));
      routers_[node]->set_extension(extensions_.back().get());
      nis_[node]->set_engine(extensions_.back().get());
    }
  }

  // Hard-fault wiring: pointers are always installed, but every degraded
  // check is behind a flag that only a kill can set.
  node_dead_.assign(n, 0);
  const DoomedPacketFn doomed = [this](const PacketPtr& p, Cycle c) {
    note_doomed(p, c);
  };
  for (NodeId node = 0; node < n; ++node) {
    routers_[node]->set_topology(&topo_);
    routers_[node]->set_condemned(&condemned_);
    routers_[node]->set_doomed_callback(doomed);
    nis_[node]->set_topology(&topo_);
    nis_[node]->set_condemned(&condemned_);
    nis_[node]->set_doomed_callback(doomed);
  }
}

void Network::tick(Cycle now) {
  // Wires index their two slots by cycle parity, so every cycle must tick.
  assert((last_tick_ == kNever || now == last_tick_ + 1) &&
         "network ticks must be consecutive cycles");
  last_tick_ = now;
  // Wires are 1-cycle pipelined, so intra-cycle ordering is immaterial.
  //
  // Idle elision, phase 1: latch every pending-wake flag before anything
  // ticks. Pushes made while ticking land in pending_wake_ for the NEXT
  // cycle; latching per-component mid-loop instead would let an earlier
  // component's push (visible at now+1) be cleared by a later latch and the
  // consumer would sleep through its delivery.
  const std::size_t n = routers_.size();
  std::uint8_t* const pending = pending_wake_.data();
  std::uint8_t* const run = run_.data();
  std::memcpy(run, pending, run_.size());
  std::memset(pending, 0, run_.size());

  // Phase 2: tick awake components; each decides afterwards whether it may
  // sleep, and one that may not raises its own flag for the next cycle. A
  // skipped tick is a provable no-op: every state change that could give a
  // sleeping component work raises its pending flag.
  const std::uint8_t* const dead = node_dead_.data();
  for (std::size_t i = 0; i < n; ++i) {
    if (dead[i] != 0) continue;
    if (run[i] == 0) {
      ++router_ticks_elided_;
      continue;
    }
    Router& r = *routers_[i];
    r.tick(now);
    if (!r.can_sleep()) pending[i] = 1;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (dead[i] != 0) continue;
    if (run[n + i] == 0) {
      ++ni_ticks_elided_;
      continue;
    }
    NetworkInterface& ni = *nis_[i];
    ni.tick(now);
    if (!ni.can_sleep()) pending[n + i] = 1;
  }

  // Traced (validated) runs check every cycle; untraced performance runs
  // skip the scans.
  if (tracer_ != nullptr) check_invariants(now);
}

void Network::wake_all() {
  std::fill(pending_wake_.begin(), pending_wake_.end(), 1);
}

void Network::check_invariants(Cycle now) const {
  const std::size_t n = routers_.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (node_dead_[i]) continue;
    assert((run_[i] != 0 || routers_[i]->no_pending_work(now)) &&
           "idle elision skipped a router with pending work");
    assert(routers_[i]->stage_masks_consistent() &&
           "router stage masks out of step with its VCs");
    assert((run_[n + i] != 0 || nis_[i]->no_pending_work(now)) &&
           "idle elision skipped an NI with pending work");
  }
  if (trace::InvariantChecker* c = tracer_->checker())
    c->end_of_cycle(now, inflight_flits());
}

StallCensus Network::stall_census() const {
  StallCensus c;
  for (const auto& r : routers_) r->stall_census(c);
  c.buffered_flits += wire_flits();
  c.pending_injections = pending_injections();
  return c;
}

bool Network::credits_quiescent() const {
  for (const auto& r : routers_)
    if (!r->credits_quiescent()) return false;
  return true;
}

bool Network::quiescent() const {
  for (const auto& r : routers_)
    if (!r->quiescent()) return false;
  for (const auto& ni : nis_)
    if (!ni->idle()) return false;
  return wire_flits() == 0;
}

std::uint64_t Network::wire_flits() const {
  std::uint64_t n = 0;
  for (const auto& r : routers_) n += r->wire_flits();
  for (const auto& ni : nis_) n += ni->wire_flits();
  return n;
}

// --- permanent (hard) faults -----------------------------------------------

void Network::note_doomed(const PacketPtr& pkt, Cycle now) {
  if (pkt->nack_for != 0) return;  // recovery traffic needs no completion
  const PacketId oid = pkt->retransmit_of != 0 ? pkt->retransmit_of : pkt->id;
  if (!resolved_.insert(oid).second) return;
  if (unreachable_) unreachable_(pkt, now);
}

void Network::enter_degraded() {
  if (degraded_) return;
  degraded_ = true;
  for (auto& r : routers_) r->enter_degraded_mode();
  for (auto& ni : nis_) ni->enter_degraded_mode();
}

bool Network::doomed_from(NodeId at, const Packet& p) const {
  return !topo_.unit_alive(p.dst, p.dst_unit) || !topo_.reachable(at, p.dst);
}

bool Network::apply_hard_fault(const HardFaultEvent& e, Cycle now) {
  assert(e.node < mesh_.num_nodes());
  switch (e.kind) {
    case HardFaultKind::Link:
      return kill_link(e.node, static_cast<Port>(e.dir), now);
    case HardFaultKind::Router:
      return kill_router(e.node, now);
    case HardFaultKind::DiscoEngine:
      return kill_engine(e.node, now);
    case HardFaultKind::LlcBank:
      return kill_bank(e.node, now);
  }
  return false;
}

bool Network::kill_engine(NodeId n, Cycle now) {
  if (!topo_.kill_engine(n)) return false;
  enter_degraded();
  ++stats_.engines_hard_failed;
  // Abort in-flight engine work first: those events must precede the kill
  // marker (the invariant checker rejects non-topology events afterwards
  // only for full router deaths, but the ordering keeps traces readable).
  if (RouterExtension* ext = extension(n)) ext->on_hard_fault(now);
  if (tracer_ != nullptr)
    tracer_->emit(now, n, trace::Event::TopoKill, 0, 0, 0,
                  static_cast<std::int64_t>(HardFaultKind::DiscoEngine));
  nis_[n]->set_bypass(now);
  wake_all();  // aborted shadows changed VC state behind sleeping components
  return true;
}

bool Network::kill_bank(NodeId n, Cycle now) {
  if (!topo_.kill_bank(n)) return false;
  enter_degraded();
  ++stats_.banks_killed;
  if (tracer_ != nullptr)
    tracer_->emit(now, n, trace::Event::TopoKill, 0, 0, 0,
                  static_cast<std::int64_t>(HardFaultKind::LlcBank));
  finish_topology_kill({}, now, /*routes_changed=*/false);
  return true;
}

bool Network::kill_link(NodeId n, Port dir, Cycle now) {
  if (!topo_.kill_link(n, dir)) return false;
  enter_degraded();
  ++stats_.links_killed;
  if (tracer_ != nullptr)
    tracer_->emit(now, n, trace::Event::TopoKill,
                  static_cast<std::uint8_t>(dir), 0, 0,
                  static_cast<std::int64_t>(HardFaultKind::Link));
  std::vector<PacketPtr> severed;
  sever_undirected_link(n, dir, severed, now);
  finish_topology_kill(std::move(severed), now, /*routes_changed=*/true);
  return true;
}

bool Network::kill_router(NodeId n, Cycle now) {
  if (!topo_.kill_router(n)) return false;
  enter_degraded();
  ++stats_.routers_killed;
  // Abort the tile's engines while their (non-topology) trace events are
  // still legal at this node, then mark it dead.
  if (RouterExtension* ext = extension(n)) ext->on_hard_fault(now);
  node_dead_[n] = 1;
  if (tracer_ != nullptr)
    tracer_->emit(now, n, trace::Event::TopoKill, 0, 0, 0,
                  static_cast<std::int64_t>(HardFaultKind::Router));

  std::vector<PacketPtr> severed;
  for (Port dir : {Port::North, Port::South, Port::East, Port::West})
    sever_undirected_link(n, dir, severed, now);

  // Tile-internal wiring: whatever sat on the NI links dies with the tile.
  if (FlitLink* l = nis_[n]->to_router_link()) {
    const std::vector<Flit> flits = l->take_all();
    // Owners are this NI's active sends, surrendered as orphans below.
    stats_.flits_destroyed += flits.size();
    if (tracer_ != nullptr && !flits.empty())
      tracer_->emit(now, n, trace::Event::TopoFlitsKilled,
                    static_cast<std::uint8_t>(Port::Local), 0, 0,
                    static_cast<std::int64_t>(flits.size()));
  }
  {
    std::vector<Flit> flits = nis_[n]->eject_wire()->take_all();
    stats_.flits_destroyed += flits.size();
    if (tracer_ != nullptr && !flits.empty())
      tracer_->emit(now, n, trace::Event::TopoFlitsKilled,
                    static_cast<std::uint8_t>(Port::Local), 0, 0,
                    static_cast<std::int64_t>(flits.size()));
    for (Flit& f : flits) severed.push_back(std::move(f.pkt));
  }
  routers_[n]->drain_dead(severed, now);
  routers_[n]->disconnect_port(Port::Local);

  // Orphans: protocol packets queued or in flight at the dead tile. The
  // system layer synthesizes their completions so live requesters and
  // directories never wedge waiting for a dead peer.
  std::vector<PacketPtr> orphans;
  nis_[n]->collect_dead_orphans(orphans);
  nis_[n]->disconnect();
  for (const PacketPtr& p : orphans) note_doomed(p, now);

  finish_topology_kill(std::move(severed), now, /*routes_changed=*/true);
  return true;
}

void Network::drain_directed_link(Router& from, Port dir,
                                  std::vector<PacketPtr>& severed, Cycle now) {
  FlitLink* l = from.out_flit_link(dir);
  if (l == nullptr) return;
  std::vector<Flit> flits = l->take_all();
  if (flits.empty()) return;
  stats_.flits_destroyed += flits.size();
  if (tracer_ != nullptr)
    tracer_->emit(now, from.id(), trace::Event::TopoFlitsKilled,
                  static_cast<std::uint8_t>(dir), 0, 0,
                  static_cast<std::int64_t>(flits.size()));
  for (Flit& f : flits) severed.push_back(std::move(f.pkt));
}

void Network::sever_undirected_link(NodeId n, Port dir,
                                    std::vector<PacketPtr>& severed,
                                    Cycle now) {
  const NodeId nb = mesh_.neighbor(n, dir);
  const Port opp = opposite(dir);
  drain_directed_link(*routers_[n], dir, severed, now);
  if (nb != kInvalidNode) drain_directed_link(*routers_[nb], opp, severed, now);
  routers_[n]->disconnect_port(dir);
  if (nb != kInvalidNode) routers_[nb]->disconnect_port(opp);
}

void Network::finish_topology_kill(std::vector<PacketPtr> severed, Cycle now,
                                   bool routes_changed) {
  const std::uint32_t n = mesh_.num_nodes();

  // Mid-wormhole packets stranded by an output link that just died.
  for (NodeId i = 0; i < n; ++i)
    if (!node_dead_[i]) routers_[i]->collect_severed(severed);

  // Packets buffered at live routers that can no longer be delivered from
  // where they sit (destination unit dead, or the component was cut).
  std::vector<PacketPtr> scratch;
  for (NodeId i = 0; i < n; ++i) {
    if (node_dead_[i]) continue;
    scratch.clear();
    routers_[i]->collect_buffered_packets(scratch);
    for (const PacketPtr& p : scratch) {
      if (!doomed_from(i, *p)) continue;
      condemned_.insert(p->id);
      note_doomed(p, now);
    }
  }

  // Classify the severed set: a packet with a live, attached destination is
  // recovered end to end (loss timeout -> NACK -> raw retransmission); the
  // rest are undeliverable and resolve through the doomed handler.
  for (const PacketPtr& p : severed) {
    if (!condemned_.insert(p->id).second) continue;  // already handled
    if (!node_dead_[p->dst] && topo_.unit_alive(p->dst, p->dst_unit) &&
        p->nack_for == 0) {
      ++stats_.severed_packets;
      nis_[p->dst]->note_severed(p, now);
    } else {
      note_doomed(p, now);
    }
  }

  // Destroy every condemned flit still buffered at a live router, then give
  // unsent packets a fresh route under the new tables.
  for (NodeId i = 0; i < n; ++i)
    if (!node_dead_[i]) routers_[i]->scrub_condemned(now);
  if (routes_changed)
    for (NodeId i = 0; i < n; ++i)
      if (!node_dead_[i]) routers_[i]->reset_unsent_vcs(now);

  // Source-side purges: queued/active sends that can no longer deliver.
  for (NodeId i = 0; i < n; ++i)
    if (!node_dead_[i]) nis_[i]->on_topology_change(now);

  // A kill rewires and rewrites state out of band: force every live
  // component to re-evaluate on the next cycle rather than trusting the
  // sleep decisions made under the old topology.
  wake_all();
}

trace::InvariantParams invariant_params(const NocConfig& cfg,
                                        const DiscoConfig& disco) {
  trace::InvariantParams p;
  p.nodes = cfg.num_nodes();
  p.ports = kNumPorts;
  p.local_port = static_cast<std::uint32_t>(Port::Local);
  p.num_vcs = cfg.num_vcs();
  p.vc_depth = cfg.vc_depth_flits;
  p.max_hops = (cfg.mesh_cols - 1) + (cfg.mesh_rows - 1);
  p.block_flits = 1 + static_cast<std::uint32_t>(kBlockBytes / kFlitBytes);
  p.beta = disco.beta;
  return p;
}

}  // namespace disco::noc
