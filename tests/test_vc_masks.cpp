// The router keeps its input VCs in router-wide 64-bit masks, one per
// pipeline stage (bit p * num_vcs + v), which caps vcs_per_vnet at 4:
// 5 ports x 3 vnets x 4 VCs = 60 bits. These tests pin that bound in
// SystemConfig::validate() and run the widest legal router, an 8x8 mesh
// at 4 VCs per vnet, with tracing and the invariant checker on (so every
// cycle also cross-checks the stage masks against a full VC scan).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cmp/scheme.h"
#include "compress/registry.h"
#include "disco/unit.h"
#include "noc/network.h"
#include "noc_test_util.h"
#include "trace/invariants.h"
#include "trace/trace.h"
#include "workload/synthetic.h"

namespace disco::noc {
namespace {

TEST(VcMaskBound, ValidateCapsVcsPerVnetAtFour) {
  SystemConfig cfg;
  cfg.noc.vcs_per_vnet = 4;
  EXPECT_NO_THROW(cfg.validate());

  cfg.noc.vcs_per_vnet = 5;
  try {
    cfg.validate();
    FAIL() << "vcs_per_vnet = 5 was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("vcs_per_vnet is 5"), std::string::npos) << what;
    EXPECT_NE(what.find("cap it at 4"), std::string::npos) << what;
  }
}

/// Counts deliveries per packet id.
class CountingSink final : public PacketSink {
 public:
  explicit CountingSink(std::map<PacketId, int>& seen) : seen_(seen) {}
  void deliver(PacketPtr pkt, Cycle) override { ++seen_[pkt->id]; }

 private:
  std::map<PacketId, int>& seen_;
};

struct WideCase {
  const char* name;
  FlowControl flow;
  bool disco;
};

void PrintTo(const WideCase& c, std::ostream* os) { *os << c.name; }

class WideRouter : public ::testing::TestWithParam<WideCase> {};

TEST_P(WideRouter, Mesh8FourVcsPerVnetDeliversEveryPacketOnce) {
  const WideCase& c = GetParam();
  NocConfig cfg;
  cfg.mesh_cols = 8;
  cfg.mesh_rows = 8;
  cfg.vcs_per_vnet = NocConfig::kMaxVcsPerVnet;
  cfg.flow_control = c.flow;
  ASSERT_EQ(kNumPorts * cfg.num_vcs(), 60u);
  const DiscoConfig dcfg;

  NocStats stats;
  const auto algo = compress::make_algorithm("delta");
  const cmp::SchemeSetup setup =
      cmp::make_scheme_setup(c.disco ? Scheme::DISCO : Scheme::Baseline, *algo);
  Network::ExtensionFactory factory;
  if (c.disco) {
    factory = [&](Router& r) {
      return std::make_unique<core::DiscoUnit>(r, dcfg, *algo, algo->latency(),
                                               stats);
    };
  }
  Network net(cfg, setup.ni, stats, factory);
  std::map<PacketId, int> seen;
  std::vector<CountingSink> sinks(cfg.num_nodes(), CountingSink(seen));
  for (NodeId n = 0; n < cfg.num_nodes(); ++n)
    net.register_sink(n, UnitKind::Core, &sinks[n]);

  TraceConfig tc;
  tc.enabled = true;
  tc.check_invariants = true;
  tc.ring_capacity = 1ULL << 24;
  trace::Tracer tracer(tc);
  trace::InvariantChecker checker(invariant_params(cfg, dcfg));
  tracer.set_checker(&checker);
  net.set_tracer(&tracer);

  // Saturating mixed traffic keeps many VCs of every port busy at once.
  Rng rng(0x71DE);
  workload::TrafficChooser chooser(workload::TrafficPattern::UniformRandom, 8,
                                   0x5EED);
  std::uint64_t injected = 0;
  Cycle clock = 0;
  auto step = [&] { net.tick(clock++); };
  for (; clock < 300;) {
    for (NodeId src = 0; src < cfg.num_nodes(); ++src) {
      if (!rng.chance(0.3)) continue;
      const auto vnet = static_cast<VNet>(rng.next_below(kNumVNets));
      PacketPtr pkt = testutil::make_packet(src, chooser.pick(src), vnet,
                                            rng.chance(0.5), clock, ++injected);
      pkt->critical = rng.chance(0.3);
      net.inject(src, std::move(pkt), clock);
    }
    step();
  }
  for (Cycle i = 0; i < 50000 && !net.quiescent(); ++i) step();

  ASSERT_TRUE(net.quiescent()) << c.name << ": mesh did not drain";
  const trace::InvariantSummary inv = checker.summary();
  EXPECT_TRUE(inv.clean()) << c.name << ": " << inv.first_violation;
  EXPECT_TRUE(net.credits_quiescent()) << c.name << ": credits not back at depth";
  ASSERT_EQ(seen.size(), injected) << c.name << ": packets lost";
  for (const auto& [id, n] : seen) EXPECT_EQ(n, 1) << "packet " << id;
  EXPECT_GT(stats.sa_idle_losses, 0u) << c.name << ": load never contended";
  if (c.disco) {
    EXPECT_GT(stats.engine_starts, 0u) << c.name;
  }

  // The top of the mask word carried traffic: some buffer write landed on
  // a Local-port VC, whose bits p * 12 + v are 48-59.
  std::uint32_t top_bit = 0;
  EXPECT_EQ(tracer.dropped_events(), 0u);
  for (const trace::TraceEvent& e : tracer.snapshot()) {
    if (e.event == trace::Event::BufferWrite)
      top_bit = std::max<std::uint32_t>(top_bit, e.port * cfg.num_vcs() + e.vc);
  }
  EXPECT_GE(top_bit, 48u) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    VcMasks, WideRouter,
    ::testing::Values(WideCase{"wormhole_plain", FlowControl::Wormhole, false},
                      WideCase{"wormhole_disco", FlowControl::Wormhole, true},
                      WideCase{"vct_plain", FlowControl::VirtualCutThrough, false},
                      WideCase{"vct_disco", FlowControl::VirtualCutThrough, true}),
    [](const ::testing::TestParamInfo<WideCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace disco::noc
