// Network-only runs (sim::NocRun): an injection phase followed by a drain
// on plain and DISCO meshes under both flow-control modes, with the
// invariant checker on. And the network's own per-tick flit-conservation
// check: a tracer that carries a checker gets one end_of_cycle per tick,
// though the code that ticks the network never calls it.
#include <gtest/gtest.h>

#include <string>

#include "noc_test_util.h"
#include "sim/noc_run.h"

namespace disco {
namespace {

struct NocRunCase {
  const char* name;
  Scheme scheme;
  FlowControl fc;
};

class NocRunDrain : public ::testing::TestWithParam<NocRunCase> {};

TEST_P(NocRunDrain, SaturatedMeshDrainsAndEjectsEveryPacket) {
  const NocRunCase& c = GetParam();
  NocConfig cfg;
  cfg.flow_control = c.fc;
  TraceConfig tc;
  tc.check_invariants = true;
  // 0.12 packets per node per cycle is past the 4x4 mesh's knee (the
  // load-latency bench's wormhole curve bends at 0.08), so the sources end
  // the injection phase with a backlog the drain has to clear.
  constexpr Cycle kInjectCycles = 3000;
  sim::NocRun run(cfg, c.scheme, tc,
                  {.rate = 0.12, .compressible = 0.8, .inject_seed = 5,
                   .dest_seed = 6});
  while (run.cycle() < kInjectCycles) run.step();
  ASSERT_TRUE(run.drain(100000)) << c.name << ": mesh did not drain";
  EXPECT_GT(run.cycle(), kInjectCycles + 200) << "no backlog to drain";

  EXPECT_GT(run.injected(), 4000u);
  EXPECT_EQ(run.stats().packets_ejected, run.injected());
  const trace::InvariantSummary inv = run.invariants();
  EXPECT_TRUE(inv.enabled);
  EXPECT_EQ(inv.cycles_checked, run.cycle());
  EXPECT_EQ(inv.violations, 0u) << inv.first_violation;
  if (c.scheme == Scheme::DISCO) {
    EXPECT_GT(run.stats().engine_starts, 0u) << "DISCO engines never ran";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Meshes, NocRunDrain,
    ::testing::Values(
        NocRunCase{"plain_wormhole", Scheme::Baseline, FlowControl::Wormhole},
        NocRunCase{"disco_wormhole", Scheme::DISCO, FlowControl::Wormhole},
        NocRunCase{"plain_vct", Scheme::Baseline,
                   FlowControl::VirtualCutThrough},
        NocRunCase{"disco_vct", Scheme::DISCO,
                   FlowControl::VirtualCutThrough}),
    [](const ::testing::TestParamInfo<NocRunCase>& info) {
      return std::string(info.param.name);
    });

TEST(NocRun, UntracedRunHasNoVerdict) {
  sim::NocRun run(NocConfig{}, Scheme::Baseline, TraceConfig{},
                  {.rate = 0.05, .inject_seed = 1, .dest_seed = 2});
  while (run.cycle() < 200) run.step();
  EXPECT_TRUE(run.drain(10000));
  EXPECT_EQ(run.stats().packets_ejected, run.injected());
  EXPECT_FALSE(run.invariants().enabled);
}

TEST(NetworkChecker, OneEndOfCyclePerTickWithoutTheCaller) {
  NocConfig cfg;
  cfg.mesh_cols = 2;
  cfg.mesh_rows = 2;
  noc::NocStats stats;
  noc::Network net(cfg, noc::NiPolicy{}, stats);
  noc::testutil::CollectingSink sink;
  for (NodeId n = 0; n < cfg.num_nodes(); ++n)
    net.register_sink(n, UnitKind::Core, &sink);
  TraceConfig tc;
  tc.check_invariants = true;
  trace::Tracer tracer(tc);
  trace::InvariantChecker checker(noc::invariant_params(cfg, DiscoConfig{}));
  tracer.set_checker(&checker);
  net.set_tracer(&tracer);

  for (NodeId src = 0; src < cfg.num_nodes(); ++src)
    net.inject(src,
               noc::testutil::make_packet(src, 3 - src, VNet::Response, true,
                                          0, src + 1),
               0);
  Cycle ticks = 0;
  while (ticks < 200) net.tick(ticks++);

  EXPECT_TRUE(net.quiescent());
  EXPECT_EQ(sink.arrivals.size(), cfg.num_nodes());
  EXPECT_EQ(checker.summary().cycles_checked, ticks);
  EXPECT_TRUE(checker.summary().clean()) << checker.summary().first_violation;
}

}  // namespace
}  // namespace disco
