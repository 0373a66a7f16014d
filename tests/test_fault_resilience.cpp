// Fault-injection and recovery tests: checksum primitives, injector
// determinism, the NI-level detect/NACK/retransmit protocol in isolation,
// the flit-loss timeout + bounded-retry fallback, and full-system runs
// under injected faults (the "no silent corruption ever" invariant).
#include <gtest/gtest.h>

#include "cmp/scheme.h"
#include "cmp/system.h"
#include "compress/registry.h"
#include "disco/unit.h"
#include "fault/fault.h"
#include "noc_test_util.h"
#include "workload/profile.h"

namespace disco {
namespace {

using noc::testutil::CollectingSink;
using noc::testutil::make_packet;
using noc::testutil::run_until_quiescent;

TEST(FaultChecksum, Crc32CatchesEverySingleBitFlip) {
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    BlockBytes b;
    for (auto& byte : b) byte = static_cast<std::uint8_t>(rng.next_u64());
    const std::uint32_t ref = fault::crc32(std::span<const std::uint8_t>(b));
    for (std::size_t bit = 0; bit < kBlockBytes * 8; bit += 37) {
      BlockBytes mut = b;
      mut[bit / 8] ^= static_cast<std::uint8_t>(1U << (bit % 8));
      EXPECT_NE(fault::crc32(std::span<const std::uint8_t>(mut)), ref);
    }
  }
}

TEST(FaultChecksum, Fold8CatchesSingleBitFlipsAndFitsTheHeaderField) {
  BlockBytes b{};
  b[3] = 0xA5;
  b[60] = 0x5A;
  const std::uint8_t f = fault::fold8(std::span<const std::uint8_t>(b));
  EXPECT_EQ(f, 0xA5 ^ 0x5A);
  BlockBytes mut = b;
  mut[17] ^= 0x04;
  EXPECT_NE(fault::fold8(std::span<const std::uint8_t>(mut)), f);
  // The dispatch helper zero-extends fold8 into the shared 32-bit field.
  EXPECT_EQ(fault::checksum(std::span<const std::uint8_t>(b), CrcMode::Fold8),
            static_cast<std::uint32_t>(f));
  EXPECT_EQ(fault::checksum(std::span<const std::uint8_t>(b), CrcMode::Crc32),
            fault::crc32(std::span<const std::uint8_t>(b)));
}

TEST(FaultInjector, DeterministicForAGivenSeed) {
  FaultConfig fc;
  fc.enabled = true;
  fc.link_bit_flip_rate = 0.5;
  fc.flit_drop_rate = 0.25;
  auto run = [&fc](std::uint64_t seed) {
    fault::FaultInjector fi(fc, seed);
    std::vector<std::uint8_t> buf(24, 0xCD);
    std::uint64_t drops = 0;
    for (int i = 0; i < 200; ++i) {
      fi.corrupt_link_payload(buf);
      if (fi.should_drop_flit()) ++drops;
    }
    return std::tuple{buf, fi.counters().link_bit_flips, drops};
  };
  EXPECT_EQ(run(42), run(42)) << "same seed must replay bit-exactly";
  EXPECT_NE(std::get<0>(run(42)), std::get<0>(run(43)));
}

TEST(FaultInjector, ZeroRatesInjectNothing) {
  FaultConfig fc;
  fc.enabled = true;
  fault::FaultInjector fi(fc, 1);
  std::vector<std::uint8_t> buf(16, 0x77);
  const std::vector<std::uint8_t> ref = buf;
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(fi.corrupt_link_payload(buf));
    EXPECT_FALSE(fi.corrupt_llc_payload(buf));
    EXPECT_FALSE(fi.corrupt_engine_output(buf));
    EXPECT_FALSE(fi.should_drop_flit());
    EXPECT_FALSE(fi.should_duplicate_flit());
    EXPECT_FALSE(fi.should_stall_engine());
  }
  EXPECT_EQ(buf, ref);
  EXPECT_EQ(fi.counters().total(), 0u);
}

TEST(FaultInjector, ZeroRateSitesDoNotShiftOtherSitesDraws) {
  // All sites share one random stream; a site whose rate is 0 must not
  // consume from it, or adding a call that can never fire would move
  // which bits every other site flips.
  FaultConfig fc;
  fc.enabled = true;
  fc.link_bit_flip_rate = 0.5;
  fault::FaultInjector plain(fc, 5);
  fault::FaultInjector interleaved(fc, 5);
  std::vector<std::uint8_t> a(24, 0x3C), b = a, scratch(24, 0);
  for (int i = 0; i < 200; ++i) {
    plain.corrupt_link_payload(a);
    EXPECT_FALSE(interleaved.corrupt_llc_payload(scratch));
    EXPECT_FALSE(interleaved.corrupt_engine_output(scratch));
    EXPECT_FALSE(interleaved.should_drop_flit());
    EXPECT_FALSE(interleaved.should_duplicate_flit());
    EXPECT_FALSE(interleaved.should_stall_engine());
    interleaved.corrupt_link_payload(b);
    ASSERT_EQ(a, b) << "link flips diverged at draw " << i;
  }
  EXPECT_GT(plain.counters().link_bit_flips, 0u);
  EXPECT_EQ(interleaved.counters().total(), plain.counters().link_bit_flips);
}

class FaultNiFixture : public ::testing::Test {
 protected:
  void build(noc::NiPolicy policy, const FaultConfig& fc) {
    injector_ = std::make_unique<fault::FaultInjector>(fc, 99);
    net_ = std::make_unique<noc::Network>(NocConfig{}, policy, stats_);
    net_->set_fault_injector(injector_.get());
    sinks_.clear();
    sinks_.resize(16);
    for (NodeId n = 0; n < 16; ++n) {
      net_->register_sink(n, UnitKind::Core, &sinks_[n]);
    }
  }

  void run_cycles(Cycle n) {
    for (Cycle i = 0; i < n; ++i) net_->tick(++clock_);
  }

  std::unique_ptr<compress::Algorithm> algo_ =
      compress::make_algorithm("delta");
  noc::NocStats stats_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<noc::Network> net_;
  std::vector<CollectingSink> sinks_;
  Cycle clock_ = 0;
};

TEST_F(FaultNiFixture, CorruptedPayloadIsDetectedAndRecoveredByRetransmission) {
  noc::NiPolicy p;
  p.algo = algo_.get();
  p.compress_on_inject = true;
  p.decompress_on_eject_all = true;
  FaultConfig fc;
  fc.enabled = true;  // all rates zero: this test corrupts by hand
  build(p, fc);

  auto pkt = make_packet(0, 15, VNet::Response, true, clock_, 1);
  const BlockBytes truth = pkt->data;
  net_->inject(0, pkt, clock_);
  // Corrupt the wire form in the payload region (not the padding bits of
  // the final byte): the dst NI must reject the stream or fail the CRC.
  ASSERT_TRUE(pkt->compressed());
  pkt->encoded->bytes[1] ^= 0x01;

  run_cycles(800);
  ASSERT_EQ(sinks_[15].arrivals.size(), 1u) << "exactly one delivery";
  EXPECT_EQ(sinks_[15].arrivals[0].pkt->data, truth);
  EXPECT_EQ(stats_.corruptions_detected, 1u);
  EXPECT_EQ(stats_.nacks_sent, 1u);
  EXPECT_EQ(stats_.retransmissions, 1u);
  EXPECT_EQ(stats_.retransmit_deliveries, 1u);
  EXPECT_EQ(stats_.silent_corruptions, 0u);
  EXPECT_EQ(stats_.unrecovered_deliveries, 0u);
  EXPECT_GT(stats_.backoff_cycles, 0u);
  EXPECT_TRUE(net_->quiescent());
  EXPECT_TRUE(net_->credits_quiescent());
}

TEST_F(FaultNiFixture, IntactTrafficPassesVerificationUntouched) {
  noc::NiPolicy p;
  p.algo = algo_.get();
  p.compress_on_inject = true;
  p.decompress_on_eject_all = true;
  FaultConfig fc;
  fc.enabled = true;
  build(p, fc);

  for (std::uint64_t id = 1; id <= 8; ++id) {
    net_->inject(static_cast<NodeId>(id % 16),
                 make_packet(static_cast<NodeId>(id % 16), 15, VNet::Response,
                             true, clock_, id),
                 clock_);
  }
  run_cycles(600);
  EXPECT_EQ(sinks_[15].arrivals.size(), 8u);
  EXPECT_EQ(stats_.crc_checks, 8u);
  EXPECT_EQ(stats_.corruptions_detected, 0u);
  EXPECT_EQ(stats_.nacks_sent, 0u);
  EXPECT_EQ(stats_.silent_corruptions, 0u);
}

TEST_F(FaultNiFixture, TotalFlitLossFallsBackToGroundTruthAfterBoundedRetries) {
  noc::NiPolicy p;  // no compression: 8-flit raw packets with body flits
  FaultConfig fc;
  fc.enabled = true;
  fc.flit_drop_rate = 1.0;  // every body flit dies: retries cannot succeed
  fc.reassembly_timeout_cycles = 32;
  fc.nack_retry_interval = 16;
  fc.max_retries = 2;
  fc.retransmit_backoff_base = 2;
  build(p, fc);

  auto pkt = make_packet(0, 15, VNet::Response, true, clock_, 1);
  const BlockBytes truth = pkt->data;
  net_->inject(0, pkt, clock_);
  run_cycles(1500);

  ASSERT_EQ(sinks_[15].arrivals.size(), 1u)
      << "liveness: the block must still be delivered exactly once";
  EXPECT_EQ(sinks_[15].arrivals[0].pkt->data, truth);
  EXPECT_GE(stats_.flit_loss_timeouts, 1u);
  EXPECT_EQ(stats_.unrecovered_deliveries, 1u);
  EXPECT_EQ(stats_.retransmissions, 2u) << "bounded by max_retries";
  EXPECT_GT(injector_->counters().flit_drops, 0u);
  EXPECT_EQ(stats_.silent_corruptions, 0u);
  EXPECT_TRUE(net_->credits_quiescent())
      << "dropped flits must not leak credits";
}

TEST_F(FaultNiFixture, DuplicatedFlitsAreDeduplicatedAndHarmless) {
  noc::NiPolicy p;
  p.algo = algo_.get();
  p.compress_on_inject = true;
  p.decompress_on_eject_all = true;
  FaultConfig fc;
  fc.enabled = true;
  fc.flit_duplicate_rate = 1.0;  // every ejected flit replayed once
  build(p, fc);

  for (std::uint64_t id = 1; id <= 6; ++id) {
    net_->inject(0, make_packet(0, 15, VNet::Response, true, clock_, id),
                 clock_);
  }
  run_cycles(800);
  EXPECT_EQ(sinks_[15].arrivals.size(), 6u) << "no double deliveries";
  EXPECT_GT(stats_.duplicate_flits_dropped, 0u);
  EXPECT_EQ(stats_.corruptions_detected, 0u);
  EXPECT_EQ(stats_.silent_corruptions, 0u);
}

SystemConfig fault_cfg(double link_rate, double llc_rate) {
  SystemConfig cfg;
  cfg.scheme = Scheme::DISCO;
  cfg.algorithm = "delta";
  cfg.fault.enabled = true;
  cfg.fault.link_bit_flip_rate = link_rate;
  cfg.fault.llc_bit_flip_rate = llc_rate;
  return cfg;
}

TEST(FaultSystem, BitFlipsAreAllDetectedAndRecoveredEndToEnd) {
  cmp::CmpSystem sys(fault_cfg(2e-3, 2e-3),
                     workload::profile_by_name("canneal"));
  sys.functional_warmup(4000);
  sys.run(15000);
  const auto& ns = sys.noc_stats();
  const auto& fc = sys.fault_injector()->counters();
  ASSERT_GT(fc.payload_faults(), 0u) << "the run must actually inject faults";
  EXPECT_GT(ns.corruptions_detected, 0u);
  EXPECT_EQ(ns.silent_corruptions, 0u)
      << "a delivered block differed from ground truth undetected";
  EXPECT_GT(ns.retransmit_deliveries, 0u);
  EXPECT_EQ(ns.unrecovered_deliveries, 0u)
      << "raw retransmissions are immune to payload flips";
  EXPECT_TRUE(sys.drain(60000)) << "recovery must not deadlock the protocol";
}

// Under delta nearly every compressible packet is compressed in its source
// NI queue, on the tile's DISCO engine, before any router sees it; those
// compressions must take the engine's output faults and stalls too.
TEST(FaultSystem, SourceQueueCompressionsTakeEngineFaults) {
  SystemConfig cfg = fault_cfg(0.0, 0.0);
  cfg.fault.engine_fault_rate = 0.2;
  cfg.fault.engine_stall_rate = 0.2;
  cmp::CmpSystem sys(cfg, workload::profile_by_name("canneal"));
  sys.functional_warmup(2000);
  sys.run(10000);
  const auto& ns = sys.noc_stats();
  const auto& fc = sys.fault_injector()->counters();
  ASSERT_GT(ns.source_compressions, 0u);
  EXPECT_GT(fc.engine_faults, 0u);
  EXPECT_GT(fc.engine_stalls, 0u);
  EXPECT_GT(ns.corruptions_detected, 0u);
  EXPECT_EQ(ns.silent_corruptions, 0u);
  EXPECT_TRUE(sys.drain(60000));
}

TEST(FaultSystem, FaultRunsAreDeterministic) {
  auto run_once = [] {
    cmp::CmpSystem sys(fault_cfg(1e-3, 1e-3),
                       workload::profile_by_name("vips"));
    sys.functional_warmup(3000);
    sys.run(10000);
    const auto& ns = sys.noc_stats();
    return std::tuple{sys.fault_injector()->counters().total(),
                      ns.corruptions_detected, ns.retransmissions,
                      ns.link_flits, sys.total_core_ops()};
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(FaultSystem, FaultyEnginesSelfQuarantine) {
  SystemConfig cfg = fault_cfg(0.0, 1.0);  // every LLC readout corrupted
  cfg.fault.engine_quarantine_threshold = 1;
  cmp::CmpSystem sys(cfg, workload::profile_by_name("canneal"));
  sys.functional_warmup(4000);
  sys.run(15000);
  const auto& ns = sys.noc_stats();
  EXPECT_GT(ns.corruptions_detected, 0u);
  EXPECT_EQ(ns.silent_corruptions, 0u);
  if (ns.engine_decode_errors > 0) {
    EXPECT_GT(ns.engines_quarantined, 0u)
        << "threshold 1: the first decode error must quarantine the engine";
  }
  EXPECT_TRUE(sys.drain(60000));
}

// A DISCO engine that quarantined itself after decode errors is out of
// service, and the NI's source-queue compression runs on that engine, so it
// stops too. DiscoUnit::on_hard_fault takes the engine out of service the
// way a decode-error quarantine does, without the NI bypass that
// Network::kill_engine adds, which would stop the pump on its own.
TEST(FaultSystem, QuarantinedEngineStopsSourceCompression) {
  const auto algo = compress::make_algorithm("delta");
  const cmp::SchemeSetup setup = cmp::make_scheme_setup(Scheme::DISCO, *algo);
  auto run = [&](bool quarantine) {
    FaultConfig fc;
    fc.enabled = true;
    fault::FaultInjector injector(fc, 3);
    NocConfig cfg;
    cfg.mesh_cols = 2;
    cfg.mesh_rows = 2;
    noc::NocStats stats;
    noc::Network net(cfg, setup.ni, stats, [&](noc::Router& r) {
      return std::make_unique<core::DiscoUnit>(r, DiscoConfig{}, *algo,
                                               algo->latency(), stats, &injector);
    });
    net.set_fault_injector(&injector);
    std::vector<CollectingSink> sinks(4);
    for (NodeId n = 0; n < 4; ++n) net.register_sink(n, UnitKind::Core, &sinks[n]);
    Cycle clock = 0;
    if (quarantine) net.extension(0)->on_hard_fault(clock);
    // One vnet sends one packet at a time: the rest wait in the source
    // queue long enough for the pump to pick them.
    for (std::uint64_t id = 1; id <= 6; ++id)
      net.inject(0, make_packet(0, 3, VNet::Response, true, clock, id), clock);
    EXPECT_TRUE(run_until_quiescent(net, clock, 4000));
    EXPECT_EQ(sinks[3].arrivals.size(), 6u);
    EXPECT_FALSE(net.ni(0).bypassed());
    return stats.source_compressions;
  };
  EXPECT_GT(run(false), 0u) << "the healthy engine compresses queued packets";
  EXPECT_EQ(run(true), 0u) << "a quarantined engine still compressed at the source";
}

}  // namespace
}  // namespace disco
