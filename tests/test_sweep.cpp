// Parallel sweep engine: thread-count invariance of the emitted metrics
// (the determinism guarantee benches rely on), group-based sharding,
// failure/timeout isolation, and the generic parallel map.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <sstream>

#include "sim/json_export.h"
#include "sim/sweep.h"
#include "workload/profile.h"

namespace disco::sim {
namespace {

RunOptions tiny_run() {
  RunOptions opt;
  opt.warmup_ops_per_core = 2000;
  opt.warmup_cycles = 2000;
  opt.measure_cycles = 8000;
  return opt;
}

std::vector<SweepCell> small_grid() {
  const RunOptions opt = tiny_run();
  std::vector<SweepCell> cells;
  std::size_t group = 0;
  for (const char* name : {"canneal", "swaptions"}) {
    const auto& profile = workload::profile_by_name(name);
    for (const Scheme s : {Scheme::CC, Scheme::DISCO}) {
      SystemConfig cfg;
      cfg.scheme = s;
      SweepCell c{cfg, profile, opt};
      c.group = group;
      cells.push_back(std::move(c));
    }
    ++group;
  }
  return cells;
}

std::string as_json(const SweepResult& r) {
  std::ostringstream os;
  write_json(os, r.ok_results());
  return os.str();
}

SweepOptions quiet(unsigned threads) {
  SweepOptions opt;
  opt.threads = threads;
  opt.progress = false;
  return opt;
}

TEST(SweepEngine, ParallelRunIsBitIdenticalToSerial) {
  const auto cells = small_grid();
  const SweepResult serial = run_sweep(cells, quiet(1));
  const SweepResult parallel = run_sweep(cells, quiet(4));
  ASSERT_EQ(serial.completed, cells.size());
  ASSERT_EQ(parallel.completed, cells.size());
  EXPECT_EQ(as_json(serial), as_json(parallel))
      << "metrics must not depend on the thread count";
}

TEST(SweepEngine, CellsOfAGroupShareASeed) {
  // Cells of one seed_group get the same derived seed (required so a row's
  // schemes replay identical traffic for normalization): two identical
  // cells in the same group produce identical metrics, while the same cell
  // in another group draws different traffic.
  SystemConfig cfg;
  cfg.scheme = Scheme::CC;
  const auto& profile = workload::profile_by_name("canneal");
  std::vector<SweepCell> cells(3, SweepCell{cfg, profile, tiny_run()});
  cells[0].group = 0;
  cells[1].group = 0;
  cells[2].group = 1;
  const SweepResult r = run_sweep(cells, quiet(2));
  ASSERT_EQ(r.completed, 3u);
  std::ostringstream a, b, c;
  write_json(a, r.cells[0].result);
  write_json(b, r.cells[1].result);
  write_json(c, r.cells[2].result);
  EXPECT_EQ(a.str(), b.str()) << "same seed_group must replay identically";
  EXPECT_NE(a.str(), c.str()) << "another group must draw fresh traffic";
}

TEST(SweepEngine, ShardsPartitionByGroupAndUnionCoversAll) {
  const auto cells = small_grid();
  SweepOptions s0 = quiet(2);
  s0.shard_index = 0;
  s0.shard_count = 2;
  SweepOptions s1 = quiet(2);
  s1.shard_index = 1;
  s1.shard_count = 2;
  const SweepResult r0 = run_sweep(cells, s0);
  const SweepResult r1 = run_sweep(cells, s1);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_NE(r0.cells[i].ok(), r1.cells[i].ok())
        << "cell " << i << " must run in exactly one shard";
    // A group's cells never straddle shards.
    EXPECT_EQ(r0.cells[i].ok(), r0.cells[i ^ 1].ok());
  }
  EXPECT_EQ(r0.completed + r1.completed, cells.size());
  EXPECT_EQ(r0.skipped, r1.completed);
  // Shard results match the corresponding cells of an unsharded run.
  const SweepResult full = run_sweep(cells, quiet(2));
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const SweepResult& owner = r0.cells[i].ok() ? r0 : r1;
    std::ostringstream a, b;
    write_json(a, owner.cells[i].result);
    write_json(b, full.cells[i].result);
    EXPECT_EQ(a.str(), b.str()) << "sharding must not change cell " << i;
  }
}

TEST(SweepEngine, FailedCellIsRecordedNotFatal) {
  auto cells = small_grid();
  cells[1].cfg.algorithm = "no-such-algorithm";  // make_algorithm throws
  const SweepResult r = run_sweep(cells, quiet(2));
  EXPECT_EQ(r.failed, 1u);
  EXPECT_EQ(r.completed, cells.size() - 1);
  EXPECT_EQ(r.cells[1].status, CellStatus::Failed);
  EXPECT_EQ(r.cells[1].attempts, 1u)
      << "a deterministic failure is not retried in process";
  EXPECT_FALSE(r.cells[1].error.empty());
  for (const std::size_t i : {0UL, 2UL, 3UL}) {
    EXPECT_TRUE(r.cells[i].ok()) << "cell " << i;
    EXPECT_EQ(r.cells[i].attempts, 1u);
  }
  EXPECT_EQ(r.ok_results().size(), cells.size() - 1);
}

TEST(SweepEngine, TimedOutCellIsRecordedNotFatal) {
  auto cells = small_grid();
  cells.resize(1);
  cells[0].opt.measure_cycles = 200000;  // far beyond the budget below
  SweepOptions opt = quiet(1);
  opt.supervisor.cell_timeout_ms = 25;  // forks the cell: a child is killable
  opt.supervisor.max_retries = 0;
  const SweepResult r = run_sweep(cells, opt);
  EXPECT_EQ(r.cells[0].status, CellStatus::TimedOut);
  EXPECT_EQ(r.cells[0].attempts, 1u) << "max_retries = 0";
  EXPECT_EQ(r.failed, 1u);
  EXPECT_TRUE(r.ok_results().empty());
}

TEST(SweepEngine, RunIndexedCoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h = 0;
  run_indexed(hits.size(), [&](std::size_t i) { ++hits[i]; }, quiet(4));
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(SweepEngine, ZeroRateFaultInjectionLeavesMetricsUntouched) {
  // The recovery machinery is a pure overlay: an enabled injector whose
  // rates are all zero must reproduce the exact metrics of a run without
  // one. (Timeout knobs are pushed out of reach so the loss scanner
  // provably never fires on slow-but-intact packets.)
  SystemConfig cfg;
  cfg.scheme = Scheme::DISCO;
  const auto& profile = workload::profile_by_name("canneal");
  std::vector<SweepCell> cells(2, SweepCell{cfg, profile, tiny_run()});
  cells[1].cfg.fault.enabled = true;
  cells[1].cfg.fault.reassembly_timeout_cycles = 1u << 30;
  cells[1].cfg.fault.nack_retry_interval = 1u << 30;
  cells[0].group = 0;
  cells[1].group = 0;  // same seed -> identical traffic
  const SweepResult r = run_sweep(cells, quiet(2));
  ASSERT_EQ(r.completed, 2u);
  const CellResult& plain = r.cells[0].result;
  const CellResult& fault = r.cells[1].result;
  EXPECT_EQ(plain.core_ops, fault.core_ops);
  EXPECT_EQ(plain.l1_misses, fault.l1_misses);
  EXPECT_EQ(plain.link_flits, fault.link_flits);
  EXPECT_EQ(plain.avg_nuca_latency, fault.avg_nuca_latency);
  EXPECT_EQ(plain.avg_packet_latency, fault.avg_packet_latency);
  EXPECT_EQ(plain.energy.subsystem_nj(), fault.energy.subsystem_nj());
  // The integrity layer ran (checks) but never intervened (all else zero).
  EXPECT_FALSE(plain.fault.enabled);
  EXPECT_TRUE(fault.fault.enabled);
  EXPECT_GT(fault.fault.crc_checks, 0u);
  EXPECT_EQ(fault.fault.corruptions_detected, 0u);
  EXPECT_EQ(fault.fault.silent_corruptions, 0u);
  EXPECT_EQ(fault.fault.flit_loss_timeouts, 0u);
  EXPECT_EQ(fault.fault.nacks_sent, 0u);
  // JSON for the non-fault cell is byte-identical to a pre-fault-layer
  // build: no "fault" object is emitted.
  std::ostringstream os;
  write_json(os, plain);
  EXPECT_EQ(os.str().find("\"fault\""), std::string::npos);
  std::ostringstream fs;
  write_json(fs, fault);
  EXPECT_NE(fs.str().find("\"fault\""), std::string::npos);
}

TEST(SweepEngine, TraceReplayIsThreadCountInvariant) {
  // Stronger determinism than metric equality: with tracing and invariant
  // checking on, the per-cell canonical event streams — the full
  // microarchitectural interleaving, not just end-of-run aggregates — must
  // be byte-identical between a serial and a 4-thread run.
  auto cells = small_grid();
  cells.resize(2);
  for (auto& c : cells) {  // 2x2 keeps the captured streams small
    c.cfg.noc.mesh_cols = 2;
    c.cfg.noc.mesh_rows = 2;
    c.cfg.l2.total_size_bytes = 256ULL * 1024;
  }
  SweepOptions serial = quiet(1);
  serial.trace.enabled = true;
  serial.trace.check_invariants = true;
  SweepOptions parallel = quiet(4);
  parallel.trace = serial.trace;
  const SweepResult a = run_sweep(cells, serial);
  const SweepResult b = run_sweep(cells, parallel);
  ASSERT_EQ(a.completed, cells.size());
  ASSERT_EQ(b.completed, cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& ra = a.cells[i].result;
    const CellResult& rb = b.cells[i].result;
    ASSERT_FALSE(ra.trace_text.empty()) << "cell " << i;
    EXPECT_EQ(ra.trace_text, rb.trace_text)
        << "trace stream of cell " << i << " depends on the thread count";
    EXPECT_TRUE(ra.invariants.enabled);
    EXPECT_TRUE(ra.invariants.clean())
        << "cell " << i << ": " << ra.invariants.first_violation;
    EXPECT_EQ(ra.invariants.events_checked, rb.invariants.events_checked);
    EXPECT_EQ(ra.invariants.cycles_checked, rb.invariants.cycles_checked);
    EXPECT_EQ(ra.invariants.violations, rb.invariants.violations);
  }
  // The JSON gains an "invariants" object exactly when checking ran.
  std::ostringstream with;
  write_json(with, a.cells[0].result);
  EXPECT_NE(with.str().find("\"invariants\""), std::string::npos);
  const SweepResult plain = run_sweep({cells[0]}, quiet(1));
  std::ostringstream without;
  write_json(without, plain.cells[0].result);
  EXPECT_EQ(without.str().find("\"invariants\""), std::string::npos);
}

TEST(SweepEngine, EmptySweepIsANoop) {
  const SweepResult r = run_sweep({}, quiet(4));
  EXPECT_TRUE(r.cells.empty());
  EXPECT_TRUE(r.all_ok());
  run_indexed(0, [](std::size_t) { FAIL(); }, quiet(4));
}

}  // namespace
}  // namespace disco::sim
