// Router/mesh fundamentals: geometry, XY routing, zero-load delivery,
// multi-flit wormhole transfer, and per-link bandwidth discipline.
#include <gtest/gtest.h>

#include "noc_test_util.h"

namespace disco::noc {
namespace {

using testutil::CollectingSink;
using testutil::make_packet;
using testutil::run_until_quiescent;

TEST(MeshShape, GeometryAndNeighbours) {
  MeshShape mesh{4, 4};
  EXPECT_EQ(mesh.num_nodes(), 16u);
  EXPECT_EQ(mesh.node_at(2, 3), 14);
  EXPECT_EQ(mesh.x_of(14), 2u);
  EXPECT_EQ(mesh.y_of(14), 3u);
  EXPECT_EQ(mesh.neighbor(5, Port::East), 6);
  EXPECT_EQ(mesh.neighbor(5, Port::West), 4);
  EXPECT_EQ(mesh.neighbor(5, Port::North), 1);
  EXPECT_EQ(mesh.neighbor(5, Port::South), 9);
  EXPECT_EQ(mesh.neighbor(0, Port::West), kInvalidNode);
  EXPECT_EQ(mesh.neighbor(0, Port::North), kInvalidNode);
  EXPECT_EQ(mesh.neighbor(15, Port::East), kInvalidNode);
  EXPECT_EQ(mesh.hops(0, 15), 6u);
  EXPECT_EQ(mesh.hops(3, 3), 0u);
}

TEST(XyRouting, XThenY) {
  MeshShape mesh{4, 4};
  EXPECT_EQ(xy_route(mesh, 0, 3), Port::East);
  EXPECT_EQ(xy_route(mesh, 3, 0), Port::West);
  EXPECT_EQ(xy_route(mesh, 0, 12), Port::South);
  EXPECT_EQ(xy_route(mesh, 12, 0), Port::North);
  EXPECT_EQ(xy_route(mesh, 5, 5), Port::Local);
  // Diagonal: X dimension resolves first.
  EXPECT_EQ(xy_route(mesh, 0, 15), Port::East);
  EXPECT_EQ(xy_route(mesh, 3, 12), Port::West);
}

class NocFixture : public ::testing::Test {
 protected:
  void build(NocConfig cfg, NiPolicy policy = {}) {
    net_ = std::make_unique<Network>(cfg, policy, stats_);
    sinks_.resize(cfg.num_nodes());
    for (NodeId n = 0; n < cfg.num_nodes(); ++n)
      net_->register_sink(n, UnitKind::Core, &sinks_[n]);
  }

  NocStats stats_;
  std::unique_ptr<Network> net_;
  std::vector<CollectingSink> sinks_;
  Cycle clock_ = 0;
};

TEST_F(NocFixture, SingleControlPacketDelivered) {
  build(NocConfig{});
  auto pkt = make_packet(0, 15, VNet::Request, false, clock_, 1);
  net_->inject(0, pkt, clock_);
  ASSERT_TRUE(run_until_quiescent(*net_, clock_, 200));
  ASSERT_EQ(sinks_[15].arrivals.size(), 1u);
  EXPECT_EQ(sinks_[15].arrivals[0].pkt->id, 1u);
  EXPECT_EQ(stats_.packets_injected, 1u);
  EXPECT_EQ(stats_.packets_ejected, 1u);
}

TEST_F(NocFixture, ZeroLoadLatencyMatchesPipelineModel) {
  build(NocConfig{});
  auto pkt = make_packet(0, 3, VNet::Request, false, clock_, 7);
  net_->inject(0, pkt, clock_);
  ASSERT_TRUE(run_until_quiescent(*net_, clock_, 200));
  const auto& arr = sinks_[3].arrivals.at(0);
  const Cycle latency = arr.when - arr.pkt->injected;
  // 3 hops x 3-stage pipeline + link/NI overheads: 9..18 cycles.
  EXPECT_GE(latency, 9u);
  EXPECT_LE(latency, 18u);
}

TEST_F(NocFixture, LatencyGrowsWithDistance) {
  build(NocConfig{});
  auto near = make_packet(5, 6, VNet::Request, false, clock_, 1);
  auto far = make_packet(0, 15, VNet::Request, false, clock_, 2);
  net_->inject(5, near, clock_);
  net_->inject(0, far, clock_);
  ASSERT_TRUE(run_until_quiescent(*net_, clock_, 300));
  const Cycle near_lat =
      sinks_[6].arrivals.at(0).when - sinks_[6].arrivals.at(0).pkt->injected;
  const Cycle far_lat =
      sinks_[15].arrivals.at(0).when - sinks_[15].arrivals.at(0).pkt->injected;
  EXPECT_LT(near_lat, far_lat);
}

TEST_F(NocFixture, DataPacketCarriesEightFlits) {
  build(NocConfig{});
  auto pkt = make_packet(0, 5, VNet::Response, true, clock_, 3);
  EXPECT_EQ(pkt->flit_count(), 8u);
  const BlockBytes expected = pkt->data;
  net_->inject(0, pkt, clock_);
  ASSERT_TRUE(run_until_quiescent(*net_, clock_, 300));
  ASSERT_EQ(sinks_[5].arrivals.size(), 1u);
  EXPECT_EQ(sinks_[5].arrivals[0].pkt->data, expected);
  EXPECT_EQ(stats_.flits_injected, 8u);
}

TEST_F(NocFixture, SelfDeliveryThroughLocalPort) {
  build(NocConfig{});
  auto pkt = make_packet(4, 4, VNet::Coherence, false, clock_, 9);
  net_->inject(4, pkt, clock_);
  ASSERT_TRUE(run_until_quiescent(*net_, clock_, 100));
  EXPECT_EQ(sinks_[4].arrivals.size(), 1u);
}

TEST_F(NocFixture, ManyPacketsAllDeliveredExactlyOnce) {
  build(NocConfig{});
  Rng rng(42);
  std::map<std::uint64_t, NodeId> expected;
  for (std::uint64_t id = 1; id <= 200; ++id) {
    const auto src = static_cast<NodeId>(rng.next_below(16));
    const auto dst = static_cast<NodeId>(rng.next_below(16));
    const auto vnet = static_cast<VNet>(rng.next_below(3));
    expected[id] = dst;
    net_->inject(src, make_packet(src, dst, vnet, rng.chance(0.5), clock_, id),
                 clock_);
    const Cycle next = clock_ + 1 + rng.next_below(2);
    while (clock_ < next) net_->tick(++clock_);
  }
  ASSERT_TRUE(run_until_quiescent(*net_, clock_, 5000));
  EXPECT_TRUE(net_->credits_quiescent()) << "credit leak under random traffic";

  std::map<std::uint64_t, int> seen;
  for (NodeId n = 0; n < 16; ++n) {
    for (const auto& a : sinks_[n].arrivals) {
      EXPECT_EQ(expected.at(a.pkt->id), n) << "misrouted packet " << a.pkt->id;
      ++seen[a.pkt->id];
    }
  }
  EXPECT_EQ(seen.size(), expected.size());
  for (const auto& [id, count] : seen) EXPECT_EQ(count, 1) << "packet " << id;
}

TEST_F(NocFixture, WormholeBackpressureDoesNotLoseFlits) {
  // Flood one destination from all nodes; the ejection port serializes.
  build(NocConfig{});
  std::uint64_t id = 1;
  for (int round = 0; round < 4; ++round) {
    for (NodeId src = 0; src < 16; ++src) {
      net_->inject(src, make_packet(src, 9, VNet::Response, true, clock_, id++),
                   clock_);
    }
    ++clock_;
    net_->tick(clock_);
  }
  ASSERT_TRUE(run_until_quiescent(*net_, clock_, 10000));
  EXPECT_TRUE(net_->credits_quiescent()) << "credit leak under backpressure";
  EXPECT_EQ(sinks_[9].arrivals.size(), 64u);
  EXPECT_EQ(stats_.packets_ejected, 64u);
}

TEST_F(NocFixture, TwoByTwoMeshWorks) {
  NocConfig cfg;
  cfg.mesh_cols = 2;
  cfg.mesh_rows = 2;
  build(cfg);
  for (std::uint64_t id = 1; id <= 20; ++id) {
    net_->inject(static_cast<NodeId>(id % 4),
                 make_packet(static_cast<NodeId>(id % 4),
                             static_cast<NodeId>((id + 1) % 4), VNet::Request,
                             true, clock_, id),
                 clock_);
  }
  ASSERT_TRUE(run_until_quiescent(*net_, clock_, 3000));
  EXPECT_EQ(stats_.packets_ejected, 20u);
}

TEST_F(NocFixture, EightByEightMeshWorks) {
  NocConfig cfg;
  cfg.mesh_cols = 8;
  cfg.mesh_rows = 8;
  build(cfg);
  sinks_.resize(64);
  Rng rng(3);
  for (std::uint64_t id = 1; id <= 100; ++id) {
    const auto src = static_cast<NodeId>(rng.next_below(64));
    const auto dst = static_cast<NodeId>(rng.next_below(64));
    net_->inject(src, make_packet(src, dst, VNet::Response, true, clock_, id),
                 clock_);
    ++clock_;
    net_->tick(clock_);
  }
  ASSERT_TRUE(run_until_quiescent(*net_, clock_, 10000));
  EXPECT_EQ(stats_.packets_ejected, 100u);
}


TEST_F(NocFixture, VirtualCutThroughDeliversAll) {
  NocConfig cfg;
  cfg.flow_control = FlowControl::VirtualCutThrough;
  build(cfg);
  Rng rng(9);
  for (std::uint64_t id = 1; id <= 150; ++id) {
    const auto src = static_cast<NodeId>(rng.next_below(16));
    const auto dst = static_cast<NodeId>(rng.next_below(16));
    net_->inject(src, make_packet(src, dst, VNet::Response, true, clock_, id),
                 clock_);
    const Cycle next = clock_ + 1 + rng.next_below(2);
    while (clock_ < next) net_->tick(++clock_);
  }
  ASSERT_TRUE(run_until_quiescent(*net_, clock_, 20000));
  EXPECT_EQ(stats_.packets_ejected, 150u);
}

TEST(PacketModel, FlitCountTracksPayload) {
  Packet p;
  p.has_data = false;
  EXPECT_EQ(p.flit_count(), 1u);
  p.has_data = true;
  EXPECT_EQ(p.flit_count(), 8u);  // 64B at 8B per flit, head carries 8B
  compress::Encoded enc;
  enc.bytes.assign(17, 0);  // delta-compressed size
  p.encoded = enc;
  EXPECT_EQ(p.flit_count(), 3u);
  p.encoded->bytes.assign(8, 0);
  EXPECT_EQ(p.flit_count(), 1u);
  p.encoded->bytes.assign(9, 0);
  EXPECT_EQ(p.flit_count(), 2u);
}

Flit test_flit(std::uint32_t seq) {
  Flit f;
  f.pkt = make_packet(0, 1, VNet::Request, false, 0, seq + 1);
  f.seq = seq;
  return f;
}

TEST(WireLink, OneCycleDelay) {
  FlitLink flits;
  flits.push(10, test_flit(7));
  EXPECT_EQ(flits.take(10), nullptr) << "flit must not be visible same cycle";
  Flit* f = flits.take(11);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->seq, 7u);
  f->pkt.reset();  // a consumer leaves a taken flit owning nothing
  EXPECT_EQ(flits.take(12), nullptr);
  EXPECT_TRUE(flits.empty());

  CreditLink credits(4);
  credits.push(10, 3);
  EXPECT_TRUE(credits.take(10).empty()) << "credit must not be visible same cycle";
  const auto batch = credits.take(11);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0], 3u);
  EXPECT_TRUE(credits.take(12).empty());
  EXPECT_TRUE(credits.empty());
}

TEST(WireLink, CreditsArriveInPushOrder) {
  CreditLink credits(8);
  const std::vector<std::uint8_t> sent{4, 0, 4, 2, 1};
  for (std::uint8_t vc : sent) credits.push(20, vc);
  credits.push(21, 5);  // next cycle's batch stays separate
  const auto batch = credits.take(21);
  EXPECT_EQ(std::vector<std::uint8_t>(batch.begin(), batch.end()), sent);
  const auto next = credits.take(22);
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0], 5u);
}

TEST(WireLink, CreditBatchAtBoundRoundTrips) {
  const NocConfig cfg;
  const std::uint32_t bound = cfg.num_vcs() * cfg.vc_depth_flits;
  CreditLink credits(bound);
  for (int round = 0; round < 3; ++round) {
    const Cycle t = 100 + static_cast<Cycle>(round);
    for (std::uint32_t i = 0; i < bound; ++i)
      credits.push(t, static_cast<std::uint8_t>(i % cfg.num_vcs()));
    const auto batch = credits.take(t + 1);
    ASSERT_EQ(batch.size(), bound);
    for (std::uint32_t i = 0; i < bound; ++i)
      EXPECT_EQ(batch[i], i % cfg.num_vcs()) << "credit " << i;
  }
}

TEST(WireLink, TakeAllReturnsOldestFlitFirst) {
  // Both parity orders: the older flit may sit in either slot.
  for (const Cycle t : {Cycle{30}, Cycle{31}}) {
    FlitLink flits;
    flits.push(t, test_flit(1));
    flits.push(t + 1, test_flit(2));
    EXPECT_EQ(flits.size(), 2u);
    const std::vector<Flit> all = flits.take_all();
    ASSERT_EQ(all.size(), 2u);
    EXPECT_EQ(all[0].seq, 1u);
    EXPECT_EQ(all[1].seq, 2u);
    EXPECT_TRUE(flits.empty());
  }
}

TEST(WireLinkDeathTest, SkippedTickAsserts) {
  EXPECT_DEATH(
      {
        NocStats stats;
        Network net(NocConfig{}, NiPolicy{}, stats);
        net.tick(1);
        net.tick(3);
      },
      "consecutive");
  // A flit left on its wire past its one visible cycle trips the next push.
  EXPECT_DEATH(
      {
        FlitLink flits;
        flits.push(1, test_flit(0));
        flits.push(3, test_flit(1));
      },
      "not drained");
}

TEST(WireLinkDeathTest, TakenFlitThatKeepsItsPacketAsserts) {
  // A consumer that reads a taken flit but leaves it owning its packet
  // would pin the packet; the wire's next push into that slot catches it.
  EXPECT_DEATH(
      {
        FlitLink flits;
        flits.push(1, test_flit(0));
        const Flit copy = *flits.take(2);
        flits.push(3, test_flit(1));
      },
      "kept the packet");
}

}  // namespace
}  // namespace disco::noc
