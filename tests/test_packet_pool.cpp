// PacketPool unit and leak-regression tests. The pool replaced shared_ptr
// packets with a thread-local freelist; two properties keep it honest:
//   1. PacketHandles (weak references like Packet::nack_ref) must go stale
//      the moment their slot is recycled — resolving one may never alias a
//      new packet.
//   2. live() must return to its baseline after any drained scenario. The
//      NACK/retransmit recovery path once leaked here: a parked packet's
//      nack_ref kept an owning reference to its own clone, which referenced
//      the original, so the pair outlived the drain (ownership cycle). The
//      fault-mode end-to-end test below is the regression for that bug and
//      runs the exact path (corrupt -> NACK -> raw retransmit -> deliver).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "compress/registry.h"
#include "fault/fault.h"
#include "noc/network.h"
#include "noc/packet_pool.h"
#include "noc_test_util.h"

namespace disco {
namespace {

using noc::testutil::CollectingSink;
using noc::testutil::make_packet;

TEST(PacketPool, LiveCountTracksAllocAndRelease) {
  auto& pool = noc::packet_pool();
  const std::size_t base = pool.live();
  {
    noc::PacketPtr a = noc::make_packet();
    noc::PacketPtr b = noc::make_packet();
    EXPECT_EQ(pool.live(), base + 2);
    noc::PacketPtr copy = a;  // refcount, not a new packet
    EXPECT_EQ(pool.live(), base + 2);
    b.reset();
    EXPECT_EQ(pool.live(), base + 1);
  }
  EXPECT_EQ(pool.live(), base);
}

TEST(PacketPool, SlotsAreRecycledThroughTheFreelist) {
  noc::Packet* first;
  {
    noc::PacketPtr a = noc::make_packet();
    a->id = 77;
    first = a.get();
  }
  // The freed slot comes back (LIFO freelist) fully reset.
  noc::PacketPtr b = noc::make_packet();
  EXPECT_EQ(b.get(), first);
  EXPECT_EQ(b->id, 0u);
  EXPECT_FALSE(b->has_data);
}

TEST(PacketPool, StaleHandlesResolveToNullAfterRecycle) {
  auto& pool = noc::packet_pool();
  noc::PacketHandle h;
  {
    noc::PacketPtr a = noc::make_packet();
    h = pool.handle_of(a.get());
    EXPECT_EQ(pool.resolve(h).get(), a.get());
  }
  // Slot freed: the generation moved on, the handle must be dead even
  // though the slot memory is still there.
  EXPECT_EQ(pool.resolve(h), nullptr);
  // And it must stay dead after the slot is reused by a new packet.
  noc::PacketPtr b = noc::make_packet();
  EXPECT_EQ(pool.resolve(h), nullptr);
  EXPECT_NE(pool.resolve(pool.handle_of(b.get())), nullptr);
}

TEST(PacketPool, NullHandleResolvesToNull) {
  EXPECT_EQ(noc::packet_pool().resolve(noc::PacketHandle{}), nullptr);
}

// Regression: pool live count returns to baseline after a fault-mode
// NACK/retransmit drain (the nack_ref ownership-cycle leak). Runs with
// every hop corrupting compressed payloads so recovery fires on the real
// path, then tears the network down and checks nothing is pinned.
TEST(PacketPool, NoLeakAfterNackRetransmitDrain) {
  auto& pool = noc::packet_pool();
  const std::size_t base = pool.live();
  {
    auto algo = compress::make_algorithm("delta");
    noc::NiPolicy policy;
    policy.algo = algo.get();
    policy.compress_on_inject = true;   // CNC: wire form is compressed
    policy.decompress_on_eject_all = true;
    FaultConfig fc;
    fc.enabled = true;
    fc.link_bit_flip_rate = 1.0;  // every compressed hop corrupts
    fault::FaultInjector injector(fc, 2024);

    NocConfig noc_cfg;
    noc_cfg.mesh_cols = 2;
    noc_cfg.mesh_rows = 2;
    noc::NocStats stats;
    noc::Network net(noc_cfg, policy, stats);
    net.set_fault_injector(&injector);
    std::vector<CollectingSink> sinks(4);
    for (NodeId n = 0; n < 4; ++n) net.register_sink(n, UnitKind::Core, &sinks[n]);

    Cycle clock = 0;
    for (std::uint64_t id = 1; id <= 4; ++id) {
      net.inject(0, make_packet(0, 1, VNet::Response, true, clock, id), clock);
    }
    for (Cycle i = 0; i < 4000 && !net.quiescent(); ++i) net.tick(++clock);

    ASSERT_TRUE(net.quiescent());
    EXPECT_EQ(sinks[1].arrivals.size(), 4u);
    // The recovery machinery must actually have run for this to be a
    // regression test of its ownership graph.
    EXPECT_GE(stats.corruptions_detected, 4u);
    EXPECT_GE(stats.nacks_sent, 4u);
    EXPECT_GE(stats.retransmissions, 4u);
    EXPECT_EQ(stats.retransmit_deliveries, 4u);
    EXPECT_EQ(stats.unrecovered_deliveries, 0u);

    // Still inside the scope: delivered packets are pinned only by the
    // sinks. Dropping the arrivals must release every packet the run made
    // even while the (quiescent) network is alive — no table may still
    // hold an owning reference.
    for (auto& s : sinks) s.arrivals.clear();
    EXPECT_EQ(pool.live(), base)
        << "drained network still pins packets (recovery-table leak)";
  }
  EXPECT_EQ(pool.live(), base);
}

// Same property for the loss-timeout path: with every body flit dropped the
// source exhausts its retries and the dst falls back to ground truth; all
// clones minted along the way must be released once drained.
TEST(PacketPool, NoLeakAfterRetryExhaustionDrain) {
  auto& pool = noc::packet_pool();
  const std::size_t base = pool.live();
  {
    noc::NiPolicy policy;  // raw 8-flit packets: body flits exist to drop
    FaultConfig fc;
    fc.enabled = true;
    fc.flit_drop_rate = 1.0;
    fc.reassembly_timeout_cycles = 32;
    fc.nack_retry_interval = 16;
    fc.max_retries = 2;
    fc.retry_backoff_base = 2;
    fault::FaultInjector injector(fc, 7);

    NocConfig noc_cfg;
    noc_cfg.mesh_cols = 2;
    noc_cfg.mesh_rows = 2;
    noc::NocStats stats;
    noc::Network net(noc_cfg, policy, stats);
    net.set_fault_injector(&injector);
    std::vector<CollectingSink> sinks(4);
    for (NodeId n = 0; n < 4; ++n) net.register_sink(n, UnitKind::Core, &sinks[n]);

    Cycle clock = 0;
    net.inject(0, make_packet(0, 3, VNet::Response, true, clock, 1), clock);
    for (Cycle i = 0; i < 6000 && !net.quiescent(); ++i) net.tick(++clock);

    ASSERT_TRUE(net.quiescent());
    ASSERT_EQ(sinks[3].arrivals.size(), 1u);
    EXPECT_GE(stats.flit_loss_timeouts, 1u);
    EXPECT_EQ(stats.unrecovered_deliveries, 1u);

    for (auto& s : sinks) s.arrivals.clear();
    EXPECT_EQ(pool.live(), base)
        << "retry-exhaustion drain still pins packets";
  }
  EXPECT_EQ(pool.live(), base);
}

}  // namespace
}  // namespace disco
