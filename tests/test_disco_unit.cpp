// DISCO in-router machinery: in-flight compression/decompression under
// randomized traffic, shadow-packet abort safety, credit-accounting
// integrity after in-place packet rebuilds, and the confidence equations.
#include <gtest/gtest.h>

#include "compress/registry.h"
#include "disco/unit.h"
#include "noc_test_util.h"

namespace disco::core {
namespace {

using disco::NocConfig;
using disco::VNet;
using noc::Network;
using noc::NocStats;
using noc::PacketPtr;
using noc::testutil::CollectingSink;
using noc::testutil::make_packet;
using noc::testutil::run_until_quiescent;

class DiscoNetFixture : public ::testing::Test {
 protected:
  void build(DiscoConfig dcfg, NocConfig cfg = {}) {
    algo_ = compress::make_algorithm("delta");
    noc::NiPolicy policy;
    policy.algo = algo_.get();
    policy.decompress_for_raw_consumers = true;
    policy.decomp_cycles = algo_->latency().decomp_cycles;
    net_ = std::make_unique<Network>(
        cfg, policy, stats_, [&](noc::Router& r) {
          return std::make_unique<DiscoUnit>(r, dcfg, *algo_, algo_->latency(),
                                             stats_);
        });
    sinks_.resize(cfg.num_nodes());
    for (NodeId n = 0; n < cfg.num_nodes(); ++n)
      net_->register_sink(n, UnitKind::Core, &sinks_[n]);
  }

  std::unique_ptr<compress::Algorithm> algo_;
  NocStats stats_;
  std::unique_ptr<Network> net_;
  std::vector<CollectingSink> sinks_;
  Cycle clock_ = 0;
};

TEST_F(DiscoNetFixture, HotspotTrafficTriggersInNetworkCompression) {
  DiscoConfig dcfg;
  dcfg.cc_threshold = 0.5;  // eager
  build(dcfg);
  // Saturate one column so packets idle in routers.
  std::uint64_t id = 1;
  for (int round = 0; round < 30; ++round) {
    for (NodeId src = 0; src < 16; ++src) {
      net_->inject(src, make_packet(src, 12, VNet::Response, true, clock_, id++),
                   clock_);
    }
    ++clock_;
    net_->tick(clock_);
  }
  ASSERT_TRUE(run_until_quiescent(*net_, clock_, 60000));
  EXPECT_EQ(stats_.packets_ejected, 30u * 16u);
  EXPECT_GT(stats_.engine_starts, 0u) << "idling packets must reach the engines";
  // Every packet must arrive with ground-truth data intact (every decode
  // asserts it against the ground truth as well).
  for (const auto& a : sinks_[12].arrivals) {
    EXPECT_FALSE(a.pkt->compressed()) << "raw consumer got a compressed block";
  }
}

TEST_F(DiscoNetFixture, RandomTrafficIntegrityUnderAggressiveEngines) {
  DiscoConfig dcfg;
  dcfg.cc_threshold = -100.0;  // compress on any stall
  dcfg.cd_threshold = -100.0;  // decompress on any stall
  dcfg.beta = 0.0;
  build(dcfg);
  Rng rng(11);
  std::uint64_t id = 1;
  std::map<std::uint64_t, BlockBytes> expected;
  for (int i = 0; i < 400; ++i) {
    const auto src = static_cast<NodeId>(rng.next_below(16));
    const auto dst = static_cast<NodeId>(rng.next_below(16));
    auto pkt = make_packet(src, dst, VNet::Response, true, clock_, id);
    expected[id] = pkt->data;
    net_->inject(src, std::move(pkt), clock_);
    ++id;
    const Cycle next = clock_ + 1 + rng.next_below(2);
    while (clock_ < next) net_->tick(++clock_);
  }
  ASSERT_TRUE(run_until_quiescent(*net_, clock_, 60000));
  EXPECT_TRUE(net_->credits_quiescent())
      << "in-flight de/compression leaked or double-returned credits";

  std::size_t delivered = 0;
  for (const auto& sink : sinks_) {
    for (const auto& a : sink.arrivals) {
      ++delivered;
      EXPECT_EQ(a.pkt->data, expected.at(a.pkt->id)) << "payload corrupted";
      EXPECT_FALSE(a.pkt->compressed());
    }
  }
  EXPECT_EQ(delivered, expected.size());
  EXPECT_GT(stats_.inflight_compressions + stats_.inflight_decompressions, 0u);
}

TEST_F(DiscoNetFixture, NonBlockingAbortsAreCounted) {
  DiscoConfig dcfg;
  dcfg.cc_threshold = -100.0;
  dcfg.cd_threshold = 1e18;  // decompression engines off: compression only
  build(dcfg);
  Rng rng(21);
  std::uint64_t id = 1;
  for (int i = 0; i < 300; ++i) {
    const auto src = static_cast<NodeId>(rng.next_below(16));
    const auto dst = static_cast<NodeId>(rng.next_below(16));
    net_->inject(src, make_packet(src, dst, VNet::Response, true, clock_, id++),
                 clock_);
    net_->tick(++clock_);
  }
  ASSERT_TRUE(run_until_quiescent(*net_, clock_, 60000));
  EXPECT_EQ(stats_.packets_ejected, 300u);
  // With hair-trigger thresholds many shadow packets depart mid-operation.
  EXPECT_GT(stats_.compression_aborts, 0u);
  // Only compressions ever started, so no abort may be booked against
  // decompression (the two counters are attributed by engine operation).
  EXPECT_EQ(stats_.decompression_aborts, 0u);
}

TEST_F(DiscoNetFixture, DecompressionAbortsAttributedSeparately) {
  // Compression engines off, hair-trigger decompression: packets enter the
  // network pre-compressed (source-queue policy), so every aborted engine
  // operation is a decompression and must land in decompression_aborts —
  // the counter the adaptive controller and Fig. 7 accounting read — and
  // never in compression_aborts.
  DiscoConfig dcfg;
  dcfg.cc_threshold = 1e18;
  dcfg.cd_threshold = -100.0;
  dcfg.beta = 0.0;
  algo_ = compress::make_algorithm("delta");
  noc::NiPolicy policy;
  policy.algo = algo_.get();
  policy.compress_on_inject = true;  // every data packet travels compressed
  policy.decompress_for_raw_consumers = true;
  policy.decomp_cycles = algo_->latency().decomp_cycles;
  NocConfig cfg;
  net_ = std::make_unique<Network>(
      cfg, policy, stats_, [&](noc::Router& r) {
        return std::make_unique<DiscoUnit>(r, dcfg, *algo_, algo_->latency(),
                                           stats_);
      });
  sinks_.resize(cfg.num_nodes());
  for (NodeId n = 0; n < cfg.num_nodes(); ++n)
    net_->register_sink(n, UnitKind::Core, &sinks_[n]);

  Rng rng(29);
  std::uint64_t id = 1;
  for (int i = 0; i < 400; ++i) {
    const auto src = static_cast<NodeId>(rng.next_below(16));
    net_->inject(src, make_packet(src, 12, VNet::Response, true, clock_, id++),
                 clock_);
    net_->tick(++clock_);
  }
  ASSERT_TRUE(run_until_quiescent(*net_, clock_, 60000));
  EXPECT_EQ(stats_.packets_ejected, 400u);
  EXPECT_GT(stats_.engine_starts, 0u);
  EXPECT_GT(stats_.decompression_aborts, 0u)
      << "hair-trigger decompression under a hotspot must abort sometimes";
  EXPECT_EQ(stats_.compression_aborts, 0u)
      << "no compression ever started, so none may be booked as aborted";
}

TEST_F(DiscoNetFixture, HighThresholdsDisableEngines) {
  DiscoConfig dcfg;
  dcfg.cc_threshold = 1e18;
  dcfg.cd_threshold = 1e18;
  build(dcfg);
  Rng rng(23);
  std::uint64_t id = 1;
  for (int i = 0; i < 200; ++i) {
    const auto src = static_cast<NodeId>(rng.next_below(16));
    net_->inject(src, make_packet(src, 12, VNet::Response, true, clock_, id++),
                 clock_);
    net_->tick(++clock_);
  }
  ASSERT_TRUE(run_until_quiescent(*net_, clock_, 60000));
  EXPECT_EQ(stats_.engine_starts, 0u);
  EXPECT_EQ(stats_.packets_ejected, 200u);
}

TEST_F(DiscoNetFixture, CompressedPacketsShrinkLinkTraffic) {
  DiscoConfig eager;
  eager.cc_threshold = -100.0;
  build(eager);
  Rng rng(31);
  std::uint64_t id = 1;
  for (int i = 0; i < 300; ++i) {
    net_->inject(static_cast<NodeId>(rng.next_below(16)),
                 make_packet(static_cast<NodeId>(rng.next_below(16)), 12,
                             VNet::Response, true, clock_, id++),
                 clock_);
    net_->tick(++clock_);
  }
  ASSERT_TRUE(run_until_quiescent(*net_, clock_, 60000));
  const std::uint64_t eager_flits = stats_.link_flits;
  const std::uint64_t eager_comp = stats_.inflight_compressions;

  // Same traffic with engines off.
  stats_ = NocStats{};
  clock_ = 0;
  DiscoConfig off;
  off.cc_threshold = 1e18;
  off.cd_threshold = 1e18;
  build(off);
  Rng rng2(31);
  id = 1;
  for (int i = 0; i < 300; ++i) {
    net_->inject(static_cast<NodeId>(rng2.next_below(16)),
                 make_packet(static_cast<NodeId>(rng2.next_below(16)), 12,
                             VNet::Response, true, clock_, id++),
                 clock_);
    net_->tick(++clock_);
  }
  ASSERT_TRUE(run_until_quiescent(*net_, clock_, 60000));
  ASSERT_GT(eager_comp, 50u);
  EXPECT_LT(eager_flits, stats_.link_flits)
      << "in-network compression must reduce flit traffic at a hotspot";
}


TEST_F(DiscoNetFixture, AdaptiveThresholdsCurbAbortRate) {
  // Hair-trigger static thresholds abort often under bursty traffic; the
  // adaptive controller must push the abort rate down over time.
  auto run = [&](bool adaptive) {
    stats_ = NocStats{};
    clock_ = 0;
    DiscoConfig dcfg;
    dcfg.cc_threshold = 0.25;
    dcfg.cd_threshold = 0.25;
    dcfg.adaptive_thresholds = adaptive;
    build(dcfg);
    Rng rng(77);
    std::uint64_t id = 1;
    // One packet per cycle across several 2048-cycle adaptation windows.
    for (int i = 0; i < 6000; ++i) {
      const auto src = static_cast<NodeId>(rng.next_below(16));
      net_->inject(src, make_packet(src, 12, VNet::Response, true, clock_, id++),
                   clock_);
      net_->tick(++clock_);
    }
    EXPECT_TRUE(run_until_quiescent(*net_, clock_, 120000));
    const double decided = static_cast<double>(
        stats_.inflight_compressions + stats_.inflight_decompressions +
        stats_.compression_aborts);
    return decided > 0 ? static_cast<double>(stats_.compression_aborts) / decided
                       : 0.0;
  };
  const double static_rate = run(false);
  const double adaptive_rate = run(true);
  EXPECT_LE(adaptive_rate, static_rate)
      << "adaptation must not increase the abort rate";
}


TEST_F(DiscoNetFixture, CutThroughEnablesWholePacketCompression) {
  // Under virtual cut-through every packet sits whole in one node (section
  // 3.3A), so whole-packet-only compression gets chances that streaming
  // wormhole denies it.
  DiscoConfig dcfg;
  dcfg.cc_threshold = -100.0;
  dcfg.separate_flit_compression = false;
  NocConfig ncfg;
  ncfg.flow_control = FlowControl::VirtualCutThrough;
  build(dcfg, ncfg);
  Rng rng(41);
  std::uint64_t id = 1;
  for (int i = 0; i < 400; ++i) {
    const auto src = static_cast<NodeId>(rng.next_below(16));
    net_->inject(src, make_packet(src, 12, VNet::Response, true, clock_, id++),
                 clock_);
    net_->tick(++clock_);
  }
  ASSERT_TRUE(run_until_quiescent(*net_, clock_, 120000));
  EXPECT_EQ(stats_.packets_ejected, 400u);
  EXPECT_GT(stats_.inflight_compressions, 20u)
      << "whole packets must be compressible under VCT";
}

}  // namespace
}  // namespace disco::core
