// Arbitration pins: FNV-1a digests of everything the router allocators
// decide on synthetic traffic. The golden traces only cover 2x2 meshes with
// the default VC count; these cases run 4x4 and 8x8 meshes at a low and a
// saturating injection rate, with 1, 2 and 3 VCs per virtual network, under
// wormhole and virtual cut-through, with plain routers and with DISCO units.
//
// Each digest folds, in order:
//   - every captured trace event (the canonical trace stream),
//   - every router's per-cycle SA/VA loser list, in the order handed to
//     RouterExtension::after_allocation (the DISCO arbitrator's input),
//   - each delivered packet's (id, injected, ejected, hops, idle_cycles),
//   - the final NocStats, serialized field by field.
// A digest moves whenever grant order, loser order, a counter or a packet's
// timing does. Update one only for an intended arbitration change.
#include <gtest/gtest.h>

#include <ios>
#include <ostream>
#include <memory>
#include <string>
#include <vector>

#include "cmp/scheme.h"
#include "common/snapshot.h"
#include "compress/registry.h"
#include "disco/unit.h"
#include "noc/network.h"
#include "noc_test_util.h"
#include "trace/invariants.h"
#include "trace/trace.h"
#include "workload/synthetic.h"

namespace disco::noc {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

struct Digest {
  std::uint64_t h = kFnvOffset;

  void byte(std::uint8_t b) { h = (h ^ b) * kFnvPrime; }
  void u64(std::uint64_t v) {
    for (unsigned i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
};

/// Folds each cycle's loser list into the digest, then forwards every call
/// to the wrapped DiscoUnit (none for plain routers).
class LoserRecorder final : public RouterExtension {
 public:
  LoserRecorder(NodeId node, Digest& d, std::unique_ptr<RouterExtension> inner)
      : node_(node), d_(d), inner_(std::move(inner)) {}

  void after_allocation(Cycle now, const std::vector<VcId>& losers) override {
    if (!losers.empty()) {
      d_.u64(now);
      d_.u64(node_);
      d_.u64(losers.size());
      for (const VcId& v : losers)
        d_.u64((static_cast<std::uint64_t>(v.port) << 8) | v.vc);
    }
    if (inner_) inner_->after_allocation(now, losers);
  }
  void on_shadow_departed(Cycle now, const VcId& vc) override {
    if (inner_) inner_->on_shadow_departed(now, vc);
  }
  void tick(Cycle now) override {
    if (inner_) inner_->tick(now);
  }
  bool idle() const override { return !inner_ || inner_->idle(); }

 private:
  NodeId node_;
  Digest& d_;
  std::unique_ptr<RouterExtension> inner_;
};

class RecordingSink final : public PacketSink {
 public:
  explicit RecordingSink(Digest& d) : d_(d) {}
  void deliver(PacketPtr pkt, Cycle) override {
    d_.u64(pkt->id);
    d_.u64(pkt->injected);
    d_.u64(pkt->ejected);
    d_.u64(pkt->hops);
    d_.u64(pkt->idle_cycles);
    ++delivered;
  }
  std::uint64_t delivered = 0;

 private:
  Digest& d_;
};

struct PinCase {
  const char* name;
  std::uint32_t side;
  double rate;  ///< packets per node per injection cycle
  std::uint32_t vcs_per_vnet;
  FlowControl flow;
  bool disco;
  std::uint64_t digest;
};

void PrintTo(const PinCase& c, std::ostream* os) { *os << c.name; }

constexpr double kLow = 0.02;
constexpr double kSaturating = 0.3;
constexpr Cycle kInjectCycles = 300;
constexpr Cycle kDrainLimit = 50000;

struct PinRun {
  std::uint64_t digest = 0;
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t losers = 0;
  std::uint64_t engine_starts = 0;
  trace::InvariantSummary invariants;
};

PinRun run_pin(const PinCase& c) {
  NocConfig cfg;
  cfg.mesh_cols = c.side;
  cfg.mesh_rows = c.side;
  cfg.vcs_per_vnet = c.vcs_per_vnet;
  cfg.flow_control = c.flow;
  const DiscoConfig dcfg;

  Digest trace_d;
  Digest losers_d;
  Digest packets_d;
  PinRun out;

  NocStats stats;
  const auto algo = compress::make_algorithm("delta");
  const cmp::SchemeSetup setup =
      cmp::make_scheme_setup(c.disco ? Scheme::DISCO : Scheme::Baseline, *algo);
  const Network::ExtensionFactory factory = [&](Router& r) {
    std::unique_ptr<RouterExtension> inner;
    if (c.disco)
      inner = std::make_unique<core::DiscoUnit>(r, dcfg, *algo, algo->latency(),
                                                stats);
    return std::make_unique<LoserRecorder>(r.id(), losers_d, std::move(inner));
  };
  Network net(cfg, setup.ni, stats, factory);
  std::vector<RecordingSink> sinks(cfg.num_nodes(), RecordingSink(packets_d));
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

  // Mixed traffic: every vnet, critical and non-critical, control and
  // (compressible) data packets, so all three priority classes compete.
  Rng rng(0xA5B1 + c.side * 131 + c.vcs_per_vnet);
  workload::TrafficChooser chooser(workload::TrafficPattern::UniformRandom,
                                   c.side, 0x5EED + c.side);
  Cycle clock = 0;
  auto step = [&] { net.tick(clock++); };
  for (; clock < kInjectCycles;) {
    for (NodeId src = 0; src < cfg.num_nodes(); ++src) {
      if (!rng.chance(c.rate)) continue;
      const auto vnet = static_cast<VNet>(rng.next_below(kNumVNets));
      const bool data = rng.chance(0.5);
      PacketPtr pkt = testutil::make_packet(src, chooser.pick(src), vnet, data,
                                            clock, ++out.injected);
      pkt->critical = rng.chance(0.3);
      net.inject(src, std::move(pkt), clock);
    }
    step();
  }
  for (Cycle i = 0; i < kDrainLimit && !net.quiescent(); ++i) step();

  EXPECT_EQ(tracer.dropped_events(), 0u) << c.name << ": trace ring wrapped";
  for (const trace::TraceEvent& e : tracer.snapshot()) {
    trace_d.u64(e.cycle);
    trace_d.u64(e.node);
    trace_d.u64(static_cast<std::uint64_t>(e.event));
    trace_d.u64((static_cast<std::uint64_t>(e.port) << 8) | e.vc);
    trace_d.u64(e.pkt);
    trace_d.u64(static_cast<std::uint64_t>(e.arg));
  }
  snap::Writer w;
  stats.visit(w);

  Digest all;
  all.u64(trace_d.h);
  all.u64(losers_d.h);
  all.u64(packets_d.h);
  for (const std::uint8_t b : w.data()) all.byte(b);
  out.digest = all.h;
  for (const RecordingSink& s : sinks) out.delivered += s.delivered;
  out.losers = stats.sa_idle_losses;
  out.engine_starts = stats.engine_starts;
  out.invariants = checker.summary();
  return out;
}

constexpr FlowControl kWh = FlowControl::Wormhole;
constexpr FlowControl kVct = FlowControl::VirtualCutThrough;

// clang-format off
constexpr PinCase kPins[] = {
    {"mesh4_low_v1_wh_plain",   4, kLow,        1, kWh,  false, 0x26a1ebb605f0afacULL},
    {"mesh4_low_v1_wh_disco",   4, kLow,        1, kWh,  true,  0x26a1ebb605f0afacULL},
    {"mesh4_low_v1_vct_plain",  4, kLow,        1, kVct, false, 0x26a1ebb605f0afacULL},
    {"mesh4_low_v1_vct_disco",  4, kLow,        1, kVct, true,  0x26a1ebb605f0afacULL},
    {"mesh4_low_v2_wh_plain",   4, kLow,        2, kWh,  false, 0x26a6d9ca4630e454ULL},
    {"mesh4_low_v2_wh_disco",   4, kLow,        2, kWh,  true,  0x26a6d9ca4630e454ULL},
    {"mesh4_low_v2_vct_plain",  4, kLow,        2, kVct, false, 0xb8c76e80effc0f0cULL},
    {"mesh4_low_v2_vct_disco",  4, kLow,        2, kVct, true,  0x79957b8d4d9da679ULL},
    {"mesh4_low_v3_wh_plain",   4, kLow,        3, kWh,  false, 0x3078b1f42a1174cfULL},
    {"mesh4_low_v3_wh_disco",   4, kLow,        3, kWh,  true,  0xcffee442df1c6a06ULL},
    {"mesh4_low_v3_vct_plain",  4, kLow,        3, kVct, false, 0xcbd692c27649be5bULL},
    {"mesh4_low_v3_vct_disco",  4, kLow,        3, kVct, true,  0x2bb1d06f39824d2dULL},
    {"mesh4_sat_v1_wh_plain",   4, kSaturating, 1, kWh,  false, 0xae7a2d6552236a0eULL},
    {"mesh4_sat_v1_wh_disco",   4, kSaturating, 1, kWh,  true,  0x97216d6e038be48dULL},
    {"mesh4_sat_v1_vct_plain",  4, kSaturating, 1, kVct, false, 0x36f11fd5979a5120ULL},
    {"mesh4_sat_v1_vct_disco",  4, kSaturating, 1, kVct, true,  0xfcc9748028f2041aULL},
    {"mesh4_sat_v2_wh_plain",   4, kSaturating, 2, kWh,  false, 0x1fa6978dd03112fbULL},
    {"mesh4_sat_v2_wh_disco",   4, kSaturating, 2, kWh,  true,  0x786c8640f1a03c44ULL},
    {"mesh4_sat_v2_vct_plain",  4, kSaturating, 2, kVct, false, 0x70e68ec48a3c3896ULL},
    {"mesh4_sat_v2_vct_disco",  4, kSaturating, 2, kVct, true,  0xf110a2efdbd9ed34ULL},
    {"mesh4_sat_v3_wh_plain",   4, kSaturating, 3, kWh,  false, 0x7fb8067771357e9bULL},
    {"mesh4_sat_v3_wh_disco",   4, kSaturating, 3, kWh,  true,  0xa1d44099d2699651ULL},
    {"mesh4_sat_v3_vct_plain",  4, kSaturating, 3, kVct, false, 0x3b0127d720243806ULL},
    {"mesh4_sat_v3_vct_disco",  4, kSaturating, 3, kVct, true,  0xb1c373eb8fc562b4ULL},
    {"mesh8_low_v1_wh_plain",   8, kLow,        1, kWh,  false, 0x0c00c8abe7dd228bULL},
    {"mesh8_low_v1_wh_disco",   8, kLow,        1, kWh,  true,  0x227edcfc08505fe2ULL},
    {"mesh8_low_v1_vct_plain",  8, kLow,        1, kVct, false, 0xb738674c23a74ddbULL},
    {"mesh8_low_v1_vct_disco",  8, kLow,        1, kVct, true,  0xd798edf5277088ecULL},
    {"mesh8_low_v2_wh_plain",   8, kLow,        2, kWh,  false, 0x9b0c92f12745deedULL},
    {"mesh8_low_v2_wh_disco",   8, kLow,        2, kWh,  true,  0xe78049281834d02aULL},
    {"mesh8_low_v2_vct_plain",  8, kLow,        2, kVct, false, 0xb19310641f77f14fULL},
    {"mesh8_low_v2_vct_disco",  8, kLow,        2, kVct, true,  0xfae8d287f7639cb1ULL},
    {"mesh8_low_v3_wh_plain",   8, kLow,        3, kWh,  false, 0x55bdd938fe63b7e7ULL},
    {"mesh8_low_v3_wh_disco",   8, kLow,        3, kWh,  true,  0xd0aadea50fd50b4fULL},
    {"mesh8_low_v3_vct_plain",  8, kLow,        3, kVct, false, 0x042e26898c2b84c6ULL},
    {"mesh8_low_v3_vct_disco",  8, kLow,        3, kVct, true,  0x85698148d585cdd3ULL},
    {"mesh8_sat_v1_wh_plain",   8, kSaturating, 1, kWh,  false, 0xdf9c810ccb77663aULL},
    {"mesh8_sat_v1_wh_disco",   8, kSaturating, 1, kWh,  true,  0x35bc0ba960b19b96ULL},
    {"mesh8_sat_v1_vct_plain",  8, kSaturating, 1, kVct, false, 0x4e5126199d8bc4baULL},
    {"mesh8_sat_v1_vct_disco",  8, kSaturating, 1, kVct, true,  0x6ce1121d882c85b0ULL},
    {"mesh8_sat_v2_wh_plain",   8, kSaturating, 2, kWh,  false, 0x16b91bb9b6daee2eULL},
    {"mesh8_sat_v2_wh_disco",   8, kSaturating, 2, kWh,  true,  0xfc138a56c96b07d8ULL},
    {"mesh8_sat_v2_vct_plain",  8, kSaturating, 2, kVct, false, 0xe839852ae9964c7dULL},
    {"mesh8_sat_v2_vct_disco",  8, kSaturating, 2, kVct, true,  0xa55bc19e5042b4e3ULL},
    {"mesh8_sat_v3_wh_plain",   8, kSaturating, 3, kWh,  false, 0xb3169fd1d7d245ceULL},
    {"mesh8_sat_v3_wh_disco",   8, kSaturating, 3, kWh,  true,  0x23dfd853398788d8ULL},
    {"mesh8_sat_v3_vct_plain",  8, kSaturating, 3, kVct, false, 0xb2502e06d5a3e718ULL},
    {"mesh8_sat_v3_vct_disco",  8, kSaturating, 3, kVct, true,  0x1908f5f7e895c491ULL},
};
// clang-format on

class ArbitrationPin : public ::testing::TestWithParam<PinCase> {};

TEST_P(ArbitrationPin, MatchesDigest) {
  const PinCase& c = GetParam();
  const PinRun run = run_pin(c);
  ASSERT_TRUE(run.invariants.clean()) << c.name << ": " << run.invariants.first_violation;
  // Every packet drained, and the case exercised what it claims to.
  EXPECT_EQ(run.delivered, run.injected) << c.name;
  if (c.rate == kSaturating) {
    EXPECT_GT(run.losers, 0u) << c.name;
    if (c.disco) {
      EXPECT_GT(run.engine_starts, 0u) << c.name;
    }
  }
  EXPECT_EQ(run.digest, c.digest)
      << c.name << ": arbitration digest is 0x" << std::hex << run.digest;
}

INSTANTIATE_TEST_SUITE_P(
    Pins, ArbitrationPin, ::testing::ValuesIn(kPins),
    [](const ::testing::TestParamInfo<PinCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace disco::noc
