// Mid-cell checkpointing: snapshot primitives, per-component roundtrips and
// the full-system determinism contract. The core properties:
//   - save -> restore -> save produces byte-identical snapshots, and
//   - a restored system's next K cycles are trace-identical to the
//     uninterrupted system's,
// so a SIGKILLed-and-resumed cell emits byte-identical metrics, traces and
// invariant summaries versus a run that never died.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "cmp/system.h"
#include "common/rng.h"
#include "common/snapshot.h"
#include "common/stats.h"
#include "sim/experiment.h"
#include "sim/wire.h"
#include "trace/trace.h"
#include "workload/profile.h"
#include "workload/trace_gen.h"

namespace disco {
namespace {

/// Unique scratch dir per test, removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(std::filesystem::temp_directory_path() /
              ("disco-snap-" + tag + "-" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

// ---------------------------------------------------------------------------
// Primitives + envelope
// ---------------------------------------------------------------------------

TEST(SnapshotPrimitives, WriterReaderRoundTrip) {
  snap::Writer w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.b(true);
  w.b(false);
  w.f64(-0.0);
  w.f64(3.14159);
  const std::vector<std::uint8_t> blob{1, 2, 3, 4, 5};
  w.bytes(blob);
  w.str("hello\0world");
  const std::uint8_t fixed[3] = {9, 8, 7};
  w.raw(std::span<const std::uint8_t>(fixed, 3));

  snap::Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.b());
  EXPECT_FALSE(r.b());
  const double neg_zero = r.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero)) << "bit pattern must survive";
  EXPECT_EQ(r.f64(), 3.14159);
  EXPECT_EQ(r.bytes(), blob);
  EXPECT_EQ(r.str(), "hello\0world");
  std::uint8_t out[3]{};
  r.raw(std::span<std::uint8_t>(out, 3));
  EXPECT_EQ(out[0], 9);
  EXPECT_NO_THROW(r.expect_end());
}

TEST(SnapshotPrimitives, TruncatedReadThrows) {
  snap::Writer w;
  w.u32(7);
  snap::Reader r(w.data());
  r.u16();
  EXPECT_THROW(r.u32(), snap::SnapshotError);
  EXPECT_THROW(r.expect_end(), snap::SnapshotError);
}

TEST(SnapshotEnvelope, FileRoundTripAndAtomicity) {
  ScratchDir dir("envelope");
  const std::string path = dir.file("s.bin");
  snap::Writer w;
  for (std::uint64_t i = 0; i < 100; ++i) w.u64(i * 0x9E3779B97F4A7C15ull);
  snap::write_snapshot_file(path, w.data());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"))
      << "tmp file must be renamed away";
  EXPECT_EQ(snap::read_snapshot_file(path), w.data());

  // Overwrite supersedes in place: one good snapshot file, never two.
  snap::Writer w2;
  w2.u64(1);
  snap::write_snapshot_file(path, w2.data());
  EXPECT_EQ(snap::read_snapshot_file(path), w2.data());

  EXPECT_THROW(snap::read_snapshot_file(dir.file("missing.bin")),
               snap::SnapshotError);
}

// ---------------------------------------------------------------------------
// Per-component roundtrips: restored state continues the exact stream
// ---------------------------------------------------------------------------

TEST(ComponentSnapshot, RngStreamContinuesExactly) {
  Rng a(123);
  for (int i = 0; i < 1000; ++i) a.next_u64();

  snap::Writer w;
  w(a);
  snap::Reader r(w.data());
  Rng b(999);  // different seed: state must come wholly from the snapshot
  r(b);

  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(ComponentSnapshot, TraceGeneratorStreamContinuesExactly) {
  const auto& profile = workload::profile_by_name("canneal");
  workload::TraceGenerator a(profile, 3, 42);
  for (int i = 0; i < 500; ++i) a.next();

  snap::Writer w;
  w(a);
  workload::TraceGenerator b(profile, 3, 42);
  snap::Reader r(w.data());
  r(b);
  EXPECT_NO_THROW(r.expect_end());

  for (int i = 0; i < 500; ++i) {
    const auto oa = a.next();
    const auto ob = b.next();
    EXPECT_EQ(oa.addr, ob.addr);
    EXPECT_EQ(oa.is_store, ob.is_store);
    EXPECT_EQ(oa.gap, ob.gap);
  }
}

TEST(ComponentSnapshot, StatsRoundTripIsByteIdentical) {
  Accumulator acc;
  Histogram h;
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    acc.add(rng.next_double() * 1e6 - 5e5);
    h.add(rng.next_below(1 << 20));
  }
  snap::Writer w1;
  w1(acc);
  w1(h);

  Accumulator acc2;
  Histogram h2;
  snap::Reader r(w1.data());
  r(acc2);
  r(h2);
  EXPECT_NO_THROW(r.expect_end());

  snap::Writer w2;
  w2(acc2);
  w2(h2);
  EXPECT_EQ(w1.data(), w2.data());
  EXPECT_EQ(acc.mean(), acc2.mean());
  EXPECT_EQ(h.approx_quantile(0.9), h2.approx_quantile(0.9));
}

TEST(ComponentSnapshot, TracerRingRoundTrip) {
  TraceConfig cfg;
  cfg.enabled = true;
  cfg.ring_capacity = 64;  // force wrap-around
  trace::Tracer a(cfg);
  for (std::uint64_t i = 0; i < 200; ++i)
    a.emit(i, static_cast<NodeId>(i % 16), trace::Event::BufferWrite, 1, 2,
           0x1000 + i, static_cast<std::int64_t>(i));

  snap::Writer w;
  w(a);
  trace::Tracer b(cfg);
  snap::Reader r(w.data());
  r(b);
  EXPECT_NO_THROW(r.expect_end());

  EXPECT_EQ(a.total_events(), b.total_events());
  std::ostringstream ca, cb;
  a.write_canonical(ca);
  b.write_canonical(cb);
  EXPECT_EQ(ca.str(), cb.str());

  // The restored ring keeps rotating identically.
  a.emit(500, 1, trace::Event::NiDeliver, 0, 0, 1, 2);
  b.emit(500, 1, trace::Event::NiDeliver, 0, 0, 1, 2);
  std::ostringstream ca2, cb2;
  a.write_canonical(ca2);
  b.write_canonical(cb2);
  EXPECT_EQ(ca2.str(), cb2.str());
}

// ---------------------------------------------------------------------------
// Full system: save -> restore -> save byte identity + trace-identical run
// ---------------------------------------------------------------------------

SystemConfig traced_config() {
  SystemConfig cfg;
  cfg.scheme = Scheme::DISCO;
  cfg.seed = 77;
  cfg.trace.enabled = true;
  cfg.trace.check_invariants = true;
  cfg.trace.ring_capacity = 1 << 14;
  // Soft faults exercise the injector RNG, CRC/NACK/retransmit machinery and
  // the NI recovery scans — the states most likely to drift on restore.
  cfg.fault.enabled = true;
  cfg.fault.link_bit_flip_rate = 2e-4;
  cfg.fault.flit_drop_rate = 1e-4;
  return cfg;
}

TEST(SystemSnapshot, SaveRestoreSaveIsByteIdentical) {
  ScratchDir dir("sys-roundtrip");
  const auto& profile = workload::profile_by_name("canneal");
  const SystemConfig cfg = traced_config();

  cmp::CmpSystem sys(cfg, profile);
  sys.functional_warmup(2000);
  sys.run(6000);
  const std::string f1 = dir.file("a.bin");
  sys.save_snapshot(f1, 4000, 0xC0FFEE);

  cmp::CmpSystem restored(cfg, profile);
  EXPECT_EQ(restored.restore_snapshot(f1, 0xC0FFEE), 4000u);
  const std::string f2 = dir.file("b.bin");
  restored.save_snapshot(f2, 4000, 0xC0FFEE);

  EXPECT_EQ(snap::read_snapshot_file(f1), snap::read_snapshot_file(f2))
      << "save -> restore -> save must reproduce identical bytes";
}

TEST(SystemSnapshot, RestoredRunIsTraceIdenticalForNextKCycles) {
  ScratchDir dir("sys-continue");
  const auto& profile = workload::profile_by_name("swaptions");
  const SystemConfig cfg = traced_config();

  cmp::CmpSystem a(cfg, profile);
  a.functional_warmup(2000);
  a.run(5000);
  const std::string path = dir.file("mid.bin");
  a.save_snapshot(path, 0, 1);

  cmp::CmpSystem b(cfg, profile);
  b.restore_snapshot(path, 1);
  ASSERT_EQ(b.now(), a.now());

  constexpr Cycle kContinue = 4000;
  a.run(kContinue);
  b.run(kContinue);

  EXPECT_EQ(a.total_core_ops(), b.total_core_ops());
  EXPECT_EQ(a.noc_stats().link_flits, b.noc_stats().link_flits);
  std::ostringstream ta, tb;
  a.tracer()->write_canonical(ta);
  b.tracer()->write_canonical(tb);
  EXPECT_EQ(ta.str(), tb.str())
      << "restored system diverged from the uninterrupted one";
  // Soft faults drop flits, and a dropped flit is *supposed* to trip the
  // conservation invariant (see TraceSystem.SeededFaultRunTripsInvariants),
  // so we don't expect clean() here — we expect the restored system to
  // report the exact same violations as the uninterrupted one.
  ASSERT_NE(a.invariant_checker(), nullptr);
  const auto& sa = a.invariant_checker()->summary();
  const auto& sb = b.invariant_checker()->summary();
  EXPECT_EQ(sa.events_checked, sb.events_checked);
  EXPECT_EQ(sa.cycles_checked, sb.cycles_checked);
  EXPECT_EQ(sa.violations, sb.violations);
  EXPECT_EQ(sa.conservation_violations, sb.conservation_violations);
  EXPECT_EQ(sa.credit_violations, sb.credit_violations);
  EXPECT_EQ(sa.first_violation, sb.first_violation);
}

// Snapshot byte pins: an FNV-1a digest of a mid-measurement snapshot
// payload for three small cells. The stream covers every L2 tag slot,
// valid or not, so these fix the serialized layout of the cache arrays
// (slot positions, invalid slots as one `valid = false` byte) as well as
// the simulated state. A snapshot written by an older build restores only
// while these hold. Update a digest only for an intended format or
// behaviour change.
struct SnapshotPin {
  const char* profile;
  Scheme scheme;
  const char* algorithm;
  std::uint64_t digest;
};

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) h = (h ^ b) * 0x100000001b3ULL;
  return h;
}

void check_pin(const SnapshotPin& pin) {
  ScratchDir dir(std::string("pin-") + pin.profile);
  const auto& profile = workload::profile_by_name(pin.profile);
  SystemConfig cfg;
  cfg.scheme = pin.scheme;
  cfg.algorithm = pin.algorithm;
  cfg.seed = 5;

  cmp::CmpSystem sys(cfg, profile);
  sys.functional_warmup(3000);
  sys.run(4000);
  const std::string saved = dir.file("saved.bin");
  sys.save_snapshot(saved, 1000, 0xD15C0);
  const std::vector<std::uint8_t> bytes = snap::read_snapshot_file(saved);
  EXPECT_EQ(fnv1a(bytes), pin.digest)
      << std::hex << "0x" << fnv1a(bytes) << " (" << std::dec << bytes.size()
      << " bytes)";

  cmp::CmpSystem restored(cfg, profile);
  EXPECT_EQ(restored.restore_snapshot(saved, 0xD15C0), 1000u);
  const std::string resaved = dir.file("resaved.bin");
  restored.save_snapshot(resaved, 1000, 0xD15C0);
  EXPECT_EQ(snap::read_snapshot_file(resaved), bytes);
}

TEST(SystemSnapshot, PinnedBytesCannealDeltaDisco) {
  check_pin({"canneal", Scheme::DISCO, "delta", 0xb33d0cd87f6c41aeULL});
}

TEST(SystemSnapshot, PinnedBytesBaselineRawStorage) {
  check_pin({"dedup", Scheme::Baseline, "delta", 0x12f134ee94e5e794ULL});
}

TEST(SystemSnapshot, PinnedBytesSc2CompressedCache) {
  check_pin({"fluidanimate", Scheme::CC, "sc2", 0x47b2b23721dc2dd3ULL});
}

TEST(SystemSnapshot, MismatchedDigestAndGeometryAreRejected) {
  ScratchDir dir("sys-reject");
  const auto& profile = workload::profile_by_name("canneal");
  const SystemConfig cfg = traced_config();
  cmp::CmpSystem sys(cfg, profile);
  sys.functional_warmup(500);
  sys.run(1000);
  const std::string path = dir.file("s.bin");
  sys.save_snapshot(path, 100, 42);

  cmp::CmpSystem other(cfg, profile);
  EXPECT_THROW(other.restore_snapshot(path, 43), snap::SnapshotError)
      << "a snapshot must never restore into a different cell";

  SystemConfig small = cfg;
  small.noc.mesh_cols = 2;
  small.noc.mesh_rows = 2;
  cmp::CmpSystem tiny(small, profile);
  EXPECT_THROW(tiny.restore_snapshot(path, 42), snap::SnapshotError)
      << "geometry mismatches must be rejected, not crash";
}

// ---------------------------------------------------------------------------
// run_cell chunked measurement: identical results, real mid-cell resume
// ---------------------------------------------------------------------------

sim::RunOptions tiny_run() {
  sim::RunOptions opt;
  opt.warmup_ops_per_core = 2000;
  opt.warmup_cycles = 2000;
  opt.measure_cycles = 8000;
  return opt;
}

TEST(ChunkedRunCell, SnapshotIntervalDoesNotChangeResults) {
  ScratchDir dir("chunked");
  const auto& profile = workload::profile_by_name("canneal");
  const SystemConfig cfg = traced_config();

  const sim::CellResult plain = sim::run_cell(cfg, profile, tiny_run());

  sim::RunOptions chunked = tiny_run();
  chunked.snapshot_interval = 2500;  // 4 uneven chunks
  chunked.snapshot_path = dir.file("snap.bin");
  std::uint64_t resumed = 99;
  chunked.resumed_from_cycles = &resumed;
  const sim::CellResult r = sim::run_cell(cfg, profile, chunked);

  EXPECT_EQ(resumed, 0u) << "no prior snapshot: must run from cycle 0";
  EXPECT_EQ(sim::wire::encode_result(plain), sim::wire::encode_result(r))
      << "chunked measurement must be bit-identical to a single run() call";
}

TEST(ChunkedRunCell, ResumesFromSnapshotByteIdentically) {
  ScratchDir dir("resume");
  const auto& profile = workload::profile_by_name("swaptions");
  const SystemConfig cfg = traced_config();

  sim::RunOptions opt = tiny_run();
  opt.snapshot_interval = 3000;
  opt.snapshot_path = dir.file("snap.bin");
  const sim::CellResult first = sim::run_cell(cfg, profile, opt);
  // The run completed, leaving its last mid-cell snapshot (at 6000 of 8000)
  // behind; a rerun must adopt it and still produce identical output.
  ASSERT_TRUE(std::filesystem::exists(opt.snapshot_path));

  std::uint64_t resumed = 0;
  opt.resumed_from_cycles = &resumed;
  const sim::CellResult second = sim::run_cell(cfg, profile, opt);
  EXPECT_EQ(resumed, 6000u);
  EXPECT_EQ(sim::wire::encode_result(first), sim::wire::encode_result(second))
      << "a resumed cell must be byte-identical to the from-zero run";
}

TEST(ChunkedRunCell, ForeignSnapshotFallsBackToFromZeroRun) {
  ScratchDir dir("foreign");
  const auto& profile = workload::profile_by_name("canneal");
  SystemConfig cfg = traced_config();

  sim::RunOptions opt = tiny_run();
  opt.snapshot_interval = 3000;
  opt.snapshot_path = dir.file("snap.bin");
  sim::run_cell(cfg, profile, opt);  // leaves a snapshot for seed 77

  cfg.seed = 78;  // different cell digest now
  const sim::CellResult clean = sim::run_cell(cfg, profile, tiny_run());
  std::uint64_t resumed = 99;
  opt.resumed_from_cycles = &resumed;
  const sim::CellResult r = sim::run_cell(cfg, profile, opt);
  EXPECT_EQ(resumed, 0u) << "digest mismatch must fall back to cycle 0";
  EXPECT_EQ(sim::wire::encode_result(clean), sim::wire::encode_result(r));
}

}  // namespace
}  // namespace disco
