// Fault-mode result pins: FNV-1a digests of three short 4x4 DISCO cells run
// with the end-to-end integrity layer live. Pins/* and
// SystemSnapshot.PinnedBytes* fix fault-free behaviour only; these fix the
// recovery paths (NI verification, NACK/retransmission, engine decode
// errors, degraded routing, orphan resolution and the drain loop) so a
// refactor of them cannot move a fault-mode number unnoticed. Update a
// digest only for an intended behaviour change.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

#include "cmp/system.h"
#include "field_recorder.h"
#include "fault/fault.h"
#include "sim/experiment.h"
#include "workload/profile.h"

namespace disco {
namespace {

std::uint64_t fnv1a(std::uint64_t h, std::string_view bytes) {
  for (const char c : bytes)
    h = (h ^ static_cast<std::uint8_t>(c)) * 0x100000001b3ULL;
  return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// Digests a labeled `visit` list: every label and every value, doubles by
/// their bit pattern, nested objects and arrays in declaration order.
struct Digest {
  std::uint64_t h = kFnvBasis;

  void word(std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      h = (h ^ static_cast<std::uint8_t>(v >> (8 * i))) * 0x100000001b3ULL;
  }
  void operator()(std::string_view name, std::uint64_t v) {
    h = fnv1a(h, name);
    word(v);
  }
  void operator()(std::string_view name, double v) {
    h = fnv1a(h, name);
    word(std::bit_cast<std::uint64_t>(v));
  }
  template <class T>
    requires requires(T& t, Digest& d) { t.visit(d); }
  void operator()(std::string_view name, T& v) {
    h = fnv1a(h, name);
    v.visit(*this);
  }
  template <class T, std::size_t N>
  void operator()(std::string_view name, T (&a)[N]) {
    h = fnv1a(h, name);
    for (std::size_t i = 0; i < N; ++i) (*this)(std::to_string(i), a[i]);
  }
};

SystemConfig disco_config() {
  SystemConfig cfg;
  cfg.scheme = Scheme::DISCO;
  cfg.algorithm = "fpc";
  cfg.seed = 11;
  // Eager engines: every stalled candidate starts an operation, so the
  // engine decode, abort and quarantine paths run in a short cell.
  cfg.disco.cc_threshold = 0.0;
  cfg.disco.cd_threshold = 0.0;
  return cfg;
}

sim::RunOptions short_run() {
  sim::RunOptions opt;
  opt.warmup_ops_per_core = 2000;
  opt.warmup_cycles = 2000;
  opt.measure_cycles = 8000;
  return opt;
}

/// Digests the field image of a result (each key path, integer, double bit
/// pattern and gate), so the pin holds whatever the JSON encoding.
std::uint64_t result_digest(const sim::CellResult& r) {
  std::uint64_t h = kFnvBasis;
  for (const auto& [path, value] : sim::testutil::field_image(r)) {
    h = fnv1a(h, path);
    h = fnv1a(h, std::string_view("\0", 1));
    h = fnv1a(h, value);
    h = fnv1a(h, std::string_view("\0", 1));
  }
  return h;
}

TEST(FaultPins, EverySoftFaultRate) {
  SystemConfig cfg = disco_config();
  cfg.fault.enabled = true;
  cfg.fault.link_bit_flip_rate = 1e-2;
  cfg.fault.llc_bit_flip_rate = 5e-2;
  cfg.fault.flit_drop_rate = 2e-4;
  cfg.fault.flit_duplicate_rate = 2e-3;
  cfg.fault.engine_fault_rate = 2e-1;
  cfg.fault.engine_stall_rate = 5e-2;
  const sim::CellResult r =
      sim::run_cell(cfg, workload::profile_by_name("canneal"), short_run());

  // Every injection site fired and every recovery path ran, so the digest
  // covers them all.
  EXPECT_GT(r.fault.link_bit_flips, 0u);
  EXPECT_GT(r.fault.llc_bit_flips, 0u);
  EXPECT_GT(r.fault.flit_drops, 0u);
  EXPECT_GT(r.fault.flit_duplicates, 0u);
  EXPECT_GT(r.fault.engine_faults, 0u);
  EXPECT_GT(r.fault.engine_stalls, 0u);
  EXPECT_GT(r.corruptions_detected, 0u);
  EXPECT_GT(r.retransmit_deliveries, 0u);
  EXPECT_GT(r.duplicate_flits_dropped, 0u);
  EXPECT_GT(r.flit_loss_timeouts, 0u);
  EXPECT_GT(r.engine_decode_errors, 0u);
  EXPECT_GT(r.compression_aborts + r.decompression_aborts, 0u);
  EXPECT_EQ(r.silent_corruptions, 0u);

  const std::uint64_t d = result_digest(r);
  EXPECT_EQ(d, 0x743eae76959d06baULL) << std::hex << "0x" << d;
}

TEST(FaultPins, HardFaultsMidMeasurement) {
  SystemConfig cfg = disco_config();
  cfg.fault.hard_faults =
      fault::parse_hard_fault_spec("engine@4000:5,link@6000:9:E,router@8000:6");
  const sim::CellResult r =
      sim::run_cell(cfg, workload::profile_by_name("vips"), short_run());

  EXPECT_EQ(r.fault.hard_faults_applied, 3u);
  EXPECT_EQ(r.engines_hard_failed, 1u);
  EXPECT_EQ(r.links_killed, 1u);
  EXPECT_EQ(r.routers_killed, 1u);
  EXPECT_GT(r.reroutes, 0u);
  EXPECT_EQ(r.silent_corruptions, 0u);

  const std::uint64_t d = result_digest(r);
  EXPECT_EQ(d, 0x3d8ac65fef445bdaULL) << std::hex << "0x" << d;
}

TEST(FaultPins, DegradedDrain) {
  SystemConfig cfg = disco_config();
  cfg.fault.flit_duplicate_rate = 1e-3;
  cfg.fault.link_bit_flip_rate = 1e-3;
  cfg.fault.hard_faults =
      fault::parse_hard_fault_spec("engine@3000:2,router@5000:10");
  cmp::CmpSystem sys(cfg, workload::profile_by_name("canneal"));
  sys.functional_warmup(2000);
  sys.run(2000);
  sys.reset_stats();
  sys.run(6000);
  ASSERT_TRUE(sys.drain(100000)) << "the degraded system must drain";
  EXPECT_EQ(sys.hard_faults_applied(), 2u);

  noc::NocStats ns = sys.noc_stats();
  cache::CacheStats cs = sys.cache_stats();
  EXPECT_GT(ns.synth_completions + ns.unreachable_drops, 0u);
  EXPECT_EQ(ns.silent_corruptions, 0u);
  Digest d;
  ns.visit(d);
  cs.visit(d);
  EXPECT_EQ(d.h, 0xc8dcbfd0ff0a1191ULL) << std::hex << "0x" << d.h;
  EXPECT_EQ(sys.now(), 8304u) << "the drain must reach quiescence on the same cycle";
}

}  // namespace
}  // namespace disco
