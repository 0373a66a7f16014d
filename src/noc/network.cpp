#include "noc/network.h"

#include <algorithm>
#include <cassert>

#include "noc/snapshot.h"

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
  // here and never resized (links hold raw pointers into them).
  pending_wake_.assign(2 * n, 1);
  stay_awake_.assign(2 * n, 1);
  run_.assign(2 * n, 0);

  // Inter-router wiring: one flit link + one (reverse) credit link per
  // directed neighbour edge. Create each once, from the sender's side.
  for (NodeId node = 0; node < n; ++node) {
    for (Port dir : {Port::North, Port::South, Port::East, Port::West}) {
      const NodeId nb = mesh_.neighbor(node, dir);
      if (nb == kInvalidNode) continue;
      auto flit = std::make_unique<FlitLink>();
      auto credit = std::make_unique<CreditLink>();
      routers_[node]->connect_out_flit(dir, flit.get());
      routers_[nb]->connect_in_flit(opposite(dir), flit.get());
      routers_[nb]->connect_out_credit(opposite(dir), credit.get());
      routers_[node]->connect_in_credit(dir, credit.get());
      // Every link wakes its consumer on push.
      flit->set_wake(&pending_wake_[nb]);
      credit->set_wake(&pending_wake_[node]);
      flit_links_.push_back(std::move(flit));
      credit_links_.push_back(std::move(credit));
    }

    // NI <-> router local port.
    auto inj = std::make_unique<FlitLink>();
    auto ej = std::make_unique<FlitLink>();
    auto inj_credit = std::make_unique<CreditLink>();
    nis_[node]->connect_to_router(inj.get());
    routers_[node]->connect_in_flit(Port::Local, inj.get());
    routers_[node]->connect_out_flit(Port::Local, ej.get());
    nis_[node]->connect_from_router(ej.get());
    routers_[node]->connect_out_credit(Port::Local, inj_credit.get());
    nis_[node]->connect_credits(inj_credit.get());
    inj->set_wake(&pending_wake_[node]);
    ej->set_wake(&pending_wake_[n + node]);
    inj_credit->set_wake(&pending_wake_[n + node]);
    nis_[node]->set_wake_flag(&pending_wake_[n + node]);
    flit_links_.push_back(std::move(inj));
    flit_links_.push_back(std::move(ej));
    credit_links_.push_back(std::move(inj_credit));
  }

  if (make_extension) {
    extensions_.reserve(n);
    for (NodeId node = 0; node < n; ++node) {
      extensions_.push_back(make_extension(*routers_[node]));
      routers_[node]->set_extension(extensions_.back().get());
    }
  }

  // Hard-fault wiring: pointers are always installed, but every degraded
  // check is behind a flag that only a kill can set.
  node_dead_.assign(n, false);
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
  // Channels are 1-cycle pipelined, so intra-cycle ordering is immaterial.
  //
  // Idle elision, phase 1: latch every pending-wake flag before anything
  // ticks. Pushes made while ticking land in pending_wake_ for the NEXT
  // cycle; latching per-component mid-loop instead would let an earlier
  // component's push (visible at now+1) be cleared by a later latch and the
  // consumer would sleep through its delivery.
  const std::size_t n = routers_.size();
  for (std::size_t i = 0; i < run_.size(); ++i) {
    run_[i] = pending_wake_[i] | stay_awake_[i];
    pending_wake_[i] = 0;
  }

  // Phase 2: tick awake components; each decides afterwards whether it may
  // sleep. A skipped tick is a provable no-op: every state change that
  // could give a sleeping component work raises its pending flag.
  for (std::size_t i = 0; i < n; ++i) {
    if (node_dead_[i]) continue;
    if (run_[i] == 0) {
      ++router_ticks_elided_;
      continue;
    }
    routers_[i]->tick(now);
    stay_awake_[i] = routers_[i]->can_sleep() ? 0 : 1;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (node_dead_[i]) continue;
    if (run_[n + i] == 0) {
      ++ni_ticks_elided_;
      continue;
    }
    nis_[i]->tick(now);
    stay_awake_[n + i] = nis_[i]->can_sleep() ? 0 : 1;
  }

  // Traced (validated) runs double-check the elision decisions every cycle;
  // untraced performance runs skip the scan.
  if (tracer_ != nullptr) check_elision_invariants(now);
}

void Network::wake_all() {
  std::fill(pending_wake_.begin(), pending_wake_.end(), 1);
}

void Network::check_elision_invariants(Cycle now) const {
  static_cast<void>(now);
  const std::size_t n = routers_.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (node_dead_[i]) continue;
    assert((run_[i] != 0 || routers_[i]->no_pending_work(now)) &&
           "idle elision skipped a router with pending work");
    assert((run_[n + i] != 0 || nis_[i]->no_pending_work(now)) &&
           "idle elision skipped an NI with pending work");
  }
}

StallCensus Network::stall_census() const {
  StallCensus c;
  for (const auto& r : routers_) r->stall_census(c);
  for (const auto& l : flit_links_) c.buffered_flits += l->size();
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
  for (const auto& l : flit_links_)
    if (!l->empty()) return false;
  return true;
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
  node_dead_[n] = true;
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
  if (FlitLink* l = nis_[n]->from_router_link()) {
    std::vector<Flit> flits = l->take_all();
    stats_.flits_destroyed += flits.size();
    if (tracer_ != nullptr && !flits.empty())
      tracer_->emit(now, n, trace::Event::TopoFlitsKilled,
                    static_cast<std::uint8_t>(Port::Local), 0, 0,
                    static_cast<std::int64_t>(flits.size()));
    for (Flit& f : flits) severed.push_back(std::move(f.pkt));
  }
  if (CreditLink* c = nis_[n]->credit_link()) c->clear();
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
  // Credit wires die with the data wires.
  if (CreditLink* c = routers_[n]->in_credit_link(dir)) c->clear();
  if (nb != kInvalidNode)
    if (CreditLink* c = routers_[nb]->in_credit_link(opp)) c->clear();
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

// --- checkpoint/restore -----------------------------------------------------

template <class Ar>
void Network::visit(Ar& ar) {
  ar(topo_, degraded_);
  ar.each(node_dead_, "network geometry");
  ar(condemned_, resolved_);
  ar.each(routers_);
  ar.each(nis_);
  ar.each(extensions_);
  ar.each(flit_links_, "network link-count");
  ar.each(credit_links_, "network link-count");
  if constexpr (!Ar::kLoading) return;

  // Re-apply the structural wiring effects of every kill recorded in the
  // restored topology: this process was constructed fully connected, but
  // the saved one had the dead wires severed.
  const std::uint32_t n = mesh_.num_nodes();
  for (NodeId i = 0; i < n; ++i) {
    for (Port dir : {Port::North, Port::South, Port::East, Port::West}) {
      if (mesh_.neighbor(i, dir) == kInvalidNode) continue;
      if (!topo_.link_alive(i, dir)) routers_[i]->disconnect_port(dir);
    }
    if (node_dead_[i]) {
      routers_[i]->disconnect_port(Port::Local);
      nis_[i]->disconnect();
    }
  }

  // Wake flags are process-local, not simulated state: the restored link
  // contents were pushed before this process existed, so re-arm everyone.
  wake_all();
}
template void Network::visit(snap::Writer&);
template void Network::visit(snap::Reader&);

}  // namespace disco::noc
