// Idle-elision regression tests. The network skips ticking routers/NIs
// whose state provably cannot change; these tests pin the three ways that
// can go wrong: not skipping enough (telemetry), skipping a component that
// still had timed work (loss-timeout scans must fire on schedule), and not
// waking a sleeping component when new work arrives.
#include <gtest/gtest.h>

#include <vector>

#include "fault/fault.h"
#include "noc/network.h"
#include "noc_test_util.h"

namespace disco {
namespace {

using noc::testutil::CollectingSink;
using noc::testutil::make_packet;

TEST(IdleElision, QuietNetworkElidesAlmostEveryTick) {
  NocConfig cfg;  // 4x4 default: 16 routers, 16 NIs
  noc::NocStats stats;
  noc::NiPolicy policy;
  noc::Network net(cfg, policy, stats);

  Cycle clock = 0;
  for (Cycle i = 0; i < 100; ++i) net.tick(++clock);

  // Everything starts awake (pessimistic initial flags), then the whole
  // mesh settles to sleep. Allow a few startup cycles of full activity.
  EXPECT_GE(net.router_ticks_elided(), 16u * 97u);
  EXPECT_GE(net.ni_ticks_elided(), 16u * 97u);
}

TEST(IdleElision, SleepingNetworkWakesForLateInjection) {
  NocConfig cfg;
  noc::NocStats stats;
  noc::NiPolicy policy;
  noc::Network net(cfg, policy, stats);
  std::vector<CollectingSink> sinks(16);
  for (NodeId n = 0; n < 16; ++n) net.register_sink(n, UnitKind::Core, &sinks[n]);

  Cycle clock = 0;
  for (Cycle i = 0; i < 200; ++i) net.tick(++clock);  // deep sleep
  const std::uint64_t elided_before = net.router_ticks_elided();
  EXPECT_GT(elided_before, 0u);

  // Inject into a fully sleeping network: the wake flags must bring the
  // whole delivery path (source NI, every router on the route, dst NI)
  // back to life with no external prodding.
  net.inject(0, make_packet(0, 15, VNet::Response, true, clock, 1), clock);
  for (Cycle i = 0; i < 200 && sinks[15].arrivals.empty(); ++i) net.tick(++clock);

  ASSERT_EQ(sinks[15].arrivals.size(), 1u) << "packet lost in a sleeping mesh";
  EXPECT_TRUE(net.quiescent());
  // Off-route routers kept sleeping while the packet moved.
  EXPECT_GT(net.router_ticks_elided(), elided_before);
}

// The loss-timeout scan lives in NI::tick. A dropped body flit leaves the
// network totally idle — no flits move, nothing arrives at the dst — so a
// buggy elision rule would put the dst NI to sleep and the timeout would
// never fire. Recovery completing end-to-end (timeout -> NACK -> retries ->
// ground-truth fallback) proves timed work runs on schedule while the rest
// of the mesh sleeps.
TEST(IdleElision, LossTimeoutsFireWhileTheMeshSleeps) {
  noc::NiPolicy policy;  // raw 8-flit packets: body flits exist to drop
  FaultConfig fc;
  fc.enabled = true;
  fc.flit_drop_rate = 1.0;
  fc.reassembly_timeout_cycles = 64;
  fc.nack_retry_interval = 32;
  fc.max_retries = 2;
  fc.retransmit_backoff_base = 4;
  fault::FaultInjector injector(fc, 11);

  NocConfig cfg;
  noc::NocStats stats;
  noc::Network net(cfg, policy, stats);
  net.set_fault_injector(&injector);
  std::vector<CollectingSink> sinks(16);
  for (NodeId n = 0; n < 16; ++n) net.register_sink(n, UnitKind::Core, &sinks[n]);

  Cycle clock = 0;
  net.inject(0, make_packet(0, 5, VNet::Response, true, clock, 1), clock);
  for (Cycle i = 0; i < 6000 && !net.quiescent(); ++i) net.tick(++clock);

  ASSERT_TRUE(net.quiescent()) << "recovery stalled: a timeout scan was elided";
  ASSERT_EQ(sinks[5].arrivals.size(), 1u);
  EXPECT_GE(stats.flit_loss_timeouts, 1u);
  EXPECT_EQ(stats.unrecovered_deliveries, 1u);
  // The run spends most of its cycles waiting out timeouts and backoff
  // with only two NIs holding state: elision must still be engaged for the
  // other 14 tiles (and their routers) or it is not doing its job.
  EXPECT_GT(net.router_ticks_elided(), 10u * static_cast<std::uint64_t>(clock) / 2u);
  EXPECT_GT(net.ni_ticks_elided(), 10u * static_cast<std::uint64_t>(clock) / 2u);
}

}  // namespace
}  // namespace disco
