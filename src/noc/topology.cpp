#include "noc/topology.h"

#include <cassert>
#include <deque>

namespace disco::noc {
namespace {

constexpr std::uint32_t kInvalidComp = 0xFFFFFFFFu;
constexpr Port kDirs[4] = {Port::North, Port::South, Port::East, Port::West};

}  // namespace

Topology::Topology(const MeshShape& mesh) : mesh_(mesh) {
  const std::uint32_t n = mesh_.num_nodes();
  router_alive_.assign(n, true);
  engine_alive_.assign(n, true);
  bank_alive_.assign(n, true);
  link_alive_.assign(n, {true, true, true, true});
  // Mesh-edge "links" do not exist; mark them dead so link_alive() answers
  // uniformly without re-deriving the geometry.
  for (NodeId node = 0; node < n; ++node)
    for (const Port d : kDirs)
      if (mesh_.neighbor(node, d) == kInvalidNode)
        link_alive_[node][static_cast<std::size_t>(d)] = false;
  comp_.assign(n, 0);
}

bool Topology::link_alive(NodeId n, Port dir) const {
  if (dir == Port::Local) return router_alive_[n];
  return link_alive_[n][static_cast<std::size_t>(dir)];
}

bool Topology::kill_router(NodeId n) {
  if (!router_alive_[n]) return false;
  router_alive_[n] = false;
  engine_alive_[n] = false;
  bank_alive_[n] = false;
  for (const Port d : kDirs) {
    const NodeId nb = mesh_.neighbor(n, d);
    if (nb == kInvalidNode) continue;
    link_alive_[n][static_cast<std::size_t>(d)] = false;
    link_alive_[nb][static_cast<std::size_t>(opposite_port(d))] = false;
  }
  ++dead_routers_;
  routing_healthy_ = false;
  ++epoch_;
  recompute();
  return true;
}

bool Topology::kill_link(NodeId n, Port dir) {
  if (dir == Port::Local) return false;
  const NodeId nb = mesh_.neighbor(n, dir);
  if (nb == kInvalidNode) return false;
  if (!link_alive_[n][static_cast<std::size_t>(dir)]) return false;
  link_alive_[n][static_cast<std::size_t>(dir)] = false;
  link_alive_[nb][static_cast<std::size_t>(opposite_port(dir))] = false;
  ++dead_links_;
  routing_healthy_ = false;
  ++epoch_;
  recompute();
  return true;
}

bool Topology::kill_engine(NodeId n) {
  if (!engine_alive_[n]) return false;
  engine_alive_[n] = false;
  return true;
}

bool Topology::kill_bank(NodeId n) {
  if (!bank_alive_[n]) return false;
  bank_alive_[n] = false;
  return true;
}

bool Topology::reachable(NodeId a, NodeId b) const {
  if (!router_alive_[a] || !router_alive_[b]) return false;
  if (routing_healthy_) return true;
  return comp_[a] == comp_[b];
}

Port Topology::route(NodeId here, NodeId dst, std::uint8_t& phase) const {
  if (routing_healthy_) return xy_route(mesh_, here, dst);
  if (here == dst) return Port::Local;
  std::uint8_t p = phase <= 1 ? phase : 0;
  std::uint8_t port = next_port_[p][pair_index(here, dst)];
  if (port == kNoRoute && p == 1) {
    // Should be unreachable: table moves only enter phase 1 when a
    // descending route exists. Fall back to the permissive phase rather
    // than strand the packet (the assert catches it in debug builds).
    assert(false && "phase-1 state with no descending route");
    p = 0;
    port = next_port_[0][pair_index(here, dst)];
  }
  assert(port != kNoRoute && "route() on an unreachable pair");
  phase = next_phase_[p][pair_index(here, dst)];
  return static_cast<Port>(port);
}

void Topology::recompute() {
  const std::uint32_t n = mesh_.num_nodes();

  // Connected components and BFS depth from each component's lowest-id live
  // router (the spanning-tree root).
  comp_.assign(n, kInvalidComp);
  std::vector<std::uint32_t> depth(n, 0);
  std::uint32_t num_comps = 0;
  std::deque<NodeId> queue;
  for (NodeId root = 0; root < n; ++root) {
    if (!router_alive_[root] || comp_[root] != kInvalidComp) continue;
    const std::uint32_t c = num_comps++;
    comp_[root] = c;
    depth[root] = 0;
    queue.clear();
    queue.push_back(root);
    while (!queue.empty()) {
      const NodeId u = queue.front();
      queue.pop_front();
      for (const Port d : kDirs) {
        if (!link_alive_[u][static_cast<std::size_t>(d)]) continue;
        const NodeId v = mesh_.neighbor(u, d);
        if (comp_[v] != kInvalidComp) continue;
        comp_[v] = c;
        depth[v] = depth[u] + 1;
        queue.push_back(v);
      }
    }
  }

  // Up*/down* orientation: the edge endpoint with the lower (depth, id) is
  // "up". A legal path climbs up-edges first, then only descends.
  const auto is_up_move = [&](NodeId u, NodeId v) {
    return depth[v] < depth[u] || (depth[v] == depth[u] && v < u);
  };

  // Per-destination backward BFS over the product graph (node, phase):
  // phase 0 may climb or start descending, phase 1 only descends. dist is
  // the hop count to dst; the next-hop choice follows strictly decreasing
  // dist, so forwarding always terminates.
  const std::size_t states = static_cast<std::size_t>(n) * n;
  for (auto& t : next_port_) t.assign(states, kNoRoute);
  for (auto& t : next_phase_) t.assign(states, 0);

  constexpr std::uint32_t kInf = 0xFFFFFFFFu;
  std::vector<std::uint32_t> dist(2 * static_cast<std::size_t>(n));
  std::deque<std::uint32_t> sq;  // state ids: node * 2 + phase
  for (NodeId dst = 0; dst < n; ++dst) {
    if (!router_alive_[dst]) continue;
    dist.assign(2 * static_cast<std::size_t>(n), kInf);
    sq.clear();
    dist[2 * static_cast<std::size_t>(dst)] = 0;
    dist[2 * static_cast<std::size_t>(dst) + 1] = 0;
    sq.push_back(2 * static_cast<std::uint32_t>(dst));
    sq.push_back(2 * static_cast<std::uint32_t>(dst) + 1);
    while (!sq.empty()) {
      const std::uint32_t s = sq.front();
      sq.pop_front();
      const NodeId v = static_cast<NodeId>(s / 2);
      const std::uint8_t pv = static_cast<std::uint8_t>(s & 1);
      // Predecessors (u, pu) with a forward move (u, pu) -> (v, pv):
      // climbing an up-edge keeps phase 0; taking a down-edge lands in
      // phase 1 from either phase.
      for (const Port d : kDirs) {
        if (!link_alive_[v][static_cast<std::size_t>(d)]) continue;
        const NodeId u = mesh_.neighbor(v, d);
        const bool up_move = is_up_move(u, v);  // the move u -> v
        if (up_move) {
          if (pv != 0) continue;
          const std::size_t su = 2 * static_cast<std::size_t>(u);
          if (dist[su] == kInf) {
            dist[su] = dist[s] + 1;
            sq.push_back(static_cast<std::uint32_t>(su));
          }
        } else {
          if (pv != 1) continue;
          for (std::uint8_t pu = 0; pu <= 1; ++pu) {
            const std::size_t su = 2 * static_cast<std::size_t>(u) + pu;
            if (dist[su] == kInf) {
              dist[su] = dist[s] + 1;
              sq.push_back(static_cast<std::uint32_t>(su));
            }
          }
        }
      }
    }

    // Materialize next hops: first port (N<S<E<W) whose successor state has
    // the minimal distance.
    for (NodeId u = 0; u < n; ++u) {
      if (u == dst || !router_alive_[u] || comp_[u] != comp_[dst]) continue;
      for (std::uint8_t pu = 0; pu <= 1; ++pu) {
        std::uint32_t best = kInf;
        std::uint8_t best_port = kNoRoute;
        std::uint8_t best_phase = 0;
        for (const Port d : kDirs) {
          if (!link_alive_[u][static_cast<std::size_t>(d)]) continue;
          const NodeId v = mesh_.neighbor(u, d);
          const bool up_move = is_up_move(u, v);
          if (up_move && pu != 0) continue;
          const std::uint8_t pv = up_move ? 0 : 1;
          const std::uint32_t dv = dist[2 * static_cast<std::size_t>(v) + pv];
          // Strict improvement only: ties resolve to the first port in
          // N<S<E<W order, deterministically.
          if (dv == kInf || dv + 1 >= best) continue;
          best = dv + 1;
          best_port = static_cast<std::uint8_t>(d);
          best_phase = pv;
        }
        const std::size_t i = pair_index(u, dst);
        next_port_[pu][i] = best_port;
        next_phase_[pu][i] = best_phase;
      }
    }
  }
}

}  // namespace disco::noc
