// Live-topology model for permanent (hard) faults: which routers, links,
// DISCO engines and L2 banks are still alive, which node pairs can still
// reach each other, and how to route around the holes.
//
// Routing policy:
//   - While no router or link has died ("routing-healthy"), route() is
//     byte-for-byte the XY function the routers always used, so fault-free
//     runs reproduce every golden trace exactly.
//   - After the first router/link death the mesh routes by up*/down* over a
//     BFS spanning tree per connected component: every live edge is oriented
//     "up" toward the (lower-depth, lower-id) endpoint, a legal path climbs
//     zero or more up-edges then descends zero or more down-edges, and no
//     cyclic channel dependency can form — deadlock freedom without virtual
//     channels dedicated to escape routing.
//
// The per-destination next-hop tables are computed over the product graph
// (node, phase) where phase 0 = may still climb, phase 1 = descending only.
// A packet carries its phase (Packet::route_phase) between hops; the table
// entry both picks the output port and advances the phase. Tables are
// rebuilt on every topology epoch (router/link kill); engine and bank kills
// leave routing untouched. All tie-breaks are deterministic ((distance,
// port order N<S<E<W)), so schedules replay bit-exactly.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "noc/routing.h"

namespace disco::noc {

/// Sentinel next-hop table entry: no legal route exists.
inline constexpr std::uint8_t kNoRoute = 255;

inline Port opposite_port(Port p) {
  switch (p) {
    case Port::North: return Port::South;
    case Port::South: return Port::North;
    case Port::East: return Port::West;
    case Port::West: return Port::East;
    case Port::Local: return Port::Local;
  }
  return Port::Local;
}

class Topology {
 public:
  explicit Topology(const MeshShape& mesh);

  const MeshShape& mesh() const { return mesh_; }

  bool router_alive(NodeId n) const { return router_alive_[n]; }
  bool engine_alive(NodeId n) const { return engine_alive_[n]; }
  bool bank_alive(NodeId n) const { return bank_alive_[n]; }
  /// Directed edge leaving `n` through `dir` (kept symmetric with the
  /// reverse edge; a link kill severs both directions).
  bool link_alive(NodeId n, Port dir) const;

  /// True until the first router or link death; the routers take the exact
  /// XY fast path while this holds, so healthy runs stay byte-identical.
  bool routing_healthy() const { return routing_healthy_; }

  /// Bumped on every router/link kill; packets whose route_epoch differs
  /// restart their up*/down* phase at the next route computation.
  std::uint32_t epoch() const { return epoch_; }

  /// Kill operations. Each returns false (and changes nothing) when the
  /// target is already dead or, for links, leads off the mesh edge. A
  /// router kill also takes the tile's engine and bank down.
  bool kill_router(NodeId n);
  bool kill_link(NodeId n, Port dir);
  bool kill_engine(NodeId n);
  bool kill_bank(NodeId n);

  /// True when live routers `a` and `b` are in the same connected component
  /// of the live mesh (a node reaches itself iff its router is alive).
  bool reachable(NodeId a, NodeId b) const;

  /// Can a packet addressed to (n, unit) still be consumed there?
  bool unit_alive(NodeId n, UnitKind unit) const {
    if (!router_alive_[n]) return false;
    return unit != UnitKind::L2Bank || bank_alive_[n];
  }

  /// Next output port from `here` toward `dst`, advancing the caller's
  /// up*/down* phase in place. Exactly xy_route() while routing_healthy().
  /// Returns Port::Local for here == dst; asserts a route exists otherwise
  /// (callers must check reachable() first).
  Port route(NodeId here, NodeId dst, std::uint8_t& phase) const;

  /// Total kills applied so far, by class.
  std::uint32_t dead_routers() const { return dead_routers_; }
  std::uint32_t dead_links() const { return dead_links_; }

  /// Snapshot: the alive flags + epoch are the primary state; the component
  /// map and next-hop tables are recomputed on restore (they are a pure
  /// function of the alive sets, with deterministic tie-breaks).
  template <class Ar>
  void visit(Ar& ar);

 private:
  std::size_t pair_index(NodeId here, NodeId dst) const {
    return static_cast<std::size_t>(here) * mesh_.num_nodes() + dst;
  }
  void recompute();

  MeshShape mesh_;
  std::vector<bool> router_alive_;
  std::vector<bool> engine_alive_;
  std::vector<bool> bank_alive_;
  /// Directed liveness per (node, N/S/E/W); symmetric by construction.
  std::vector<std::array<bool, 4>> link_alive_;

  bool routing_healthy_ = true;
  std::uint32_t epoch_ = 0;
  std::uint32_t dead_routers_ = 0;
  std::uint32_t dead_links_ = 0;

  /// Connected-component id per node (dead routers get kInvalidComp).
  std::vector<std::uint32_t> comp_;
  /// Up*/down* next-hop tables, indexed [phase][here * nodes + dst].
  std::array<std::vector<std::uint8_t>, 2> next_port_;
  std::array<std::vector<std::uint8_t>, 2> next_phase_;
};

}  // namespace disco::noc
