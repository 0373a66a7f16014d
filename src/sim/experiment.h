// Experiment harness: runs one (scheme x algorithm x workload x mesh) cell
// with warmup + measurement phases and extracts the metrics the paper's
// tables and figures report. Every bench binary is a thin driver over this.
#pragma once

#include <atomic>
#include <string>
#include <vector>

#include "cmp/system.h"
#include "energy/energy_model.h"

namespace disco::sim {

/// Fault-injection and recovery counters for one cell (all zero — and
/// `enabled` false — when the cell ran without an injector). The injected
/// faults, by site, are the injector's own counters.
struct FaultSummary : fault::FaultCounters {
  bool enabled = false;
  // Detection / recovery (from NocStats).
  std::uint64_t crc_checks = 0;
  std::uint64_t corruptions_detected = 0;
  std::uint64_t silent_corruptions = 0;
  std::uint64_t flit_loss_timeouts = 0;
  std::uint64_t nacks_sent = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t retransmit_deliveries = 0;
  std::uint64_t backoff_cycles = 0;
  std::uint64_t duplicate_flits_dropped = 0;
  std::uint64_t duplicate_retransmissions = 0;
  std::uint64_t unrecovered_deliveries = 0;
  std::uint64_t engine_decode_errors = 0;
  std::uint64_t engines_quarantined = 0;

  // Permanent (hard) faults + graceful degradation. `hard_enabled` is true
  // when the cell ran with a hard-fault schedule (--hard-fault /
  // --hard-fault-rate); the counters come from NocStats and the system.
  bool hard_enabled = false;
  std::uint64_t hard_faults_applied = 0;  ///< whole run, survives phase resets
  std::uint64_t links_killed = 0;
  std::uint64_t routers_killed = 0;
  std::uint64_t engines_hard_failed = 0;
  std::uint64_t banks_killed = 0;
  std::uint64_t unreachable_drops = 0;
  std::uint64_t dead_component_drops = 0;
  std::uint64_t flits_destroyed = 0;
  std::uint64_t severed_packets = 0;
  std::uint64_t reroutes = 0;
  std::uint64_t bypass_retransmits = 0;
  std::uint64_t synth_completions = 0;

  /// Components lost over the whole run (the x-axis of the degradation
  /// tables: latency/energy vs. dead components).
  std::uint64_t components_killed() const {
    return links_killed + routers_killed + engines_hard_failed + banks_killed;
  }

  /// Part of the CellResult field list: the `fault` and `hard_fault`
  /// objects.
  template <class V>
  void visit(V& v) {
    v.object("fault", enabled, [&] {
      FaultCounters::visit(v);
      v("crc_checks", crc_checks);
      v("corruptions_detected", corruptions_detected);
      v("silent_corruptions", silent_corruptions);
      v("flit_loss_timeouts", flit_loss_timeouts);
      v("nacks_sent", nacks_sent);
      v("retransmissions", retransmissions);
      v("retransmit_deliveries", retransmit_deliveries);
      v("backoff_cycles", backoff_cycles);
      v("duplicate_flits_dropped", duplicate_flits_dropped);
      v("duplicate_retransmissions", duplicate_retransmissions);
      v("unrecovered_deliveries", unrecovered_deliveries);
      v("engine_decode_errors", engine_decode_errors);
      v("engines_quarantined", engines_quarantined);
    });
    v.object("hard_fault", hard_enabled, [&] {
      v("applied", hard_faults_applied);
      v("links_killed", links_killed);
      v("routers_killed", routers_killed);
      v("engines_hard_failed", engines_hard_failed);
      v("banks_killed", banks_killed);
      v("unreachable_drops", unreachable_drops);
      v("dead_component_drops", dead_component_drops);
      v("flits_destroyed", flits_destroyed);
      v("severed_packets", severed_packets);
      v("reroutes", reroutes);
      v("bypass_retransmits", bypass_retransmits);
      v("synth_completions", synth_completions);
    });
  }
};

struct CellResult {
  std::string workload;
  std::string algorithm;
  Scheme scheme = Scheme::Baseline;

  Cycle measured_cycles = 0;
  std::uint64_t core_ops = 0;
  std::uint64_t l1_misses = 0;

  /// The Fig. 5/6/8 metric (pre-normalization): average NUCA data access
  /// latency of L1 misses served on chip (NoC + bank), in cycles.
  double avg_nuca_latency = 0;
  /// All L1 misses including DRAM-served ones.
  double avg_miss_latency = 0;
  double avg_dram_latency = 0;
  double l2_miss_rate = 0;
  double avg_packet_latency = 0;
  double avg_stored_ratio = 0;  ///< compression ratio of resident L2 lines

  std::uint64_t link_flits = 0;
  std::uint64_t inflight_compressions = 0;
  std::uint64_t inflight_decompressions = 0;
  std::uint64_t source_compressions = 0;
  std::uint64_t compression_aborts = 0;
  std::uint64_t decompression_aborts = 0;
  std::uint64_t hidden_decomp_ops = 0;
  std::uint64_t exposed_decomp_cycles = 0;
  std::uint64_t exposed_comp_cycles = 0;
  std::uint64_t ni_compressions = 0;
  std::uint64_t ni_decompressions = 0;
  std::uint64_t engine_starts = 0;
  std::uint64_t sa_idle_losses = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t l2_fills = 0;

  energy::EnergyBreakdown energy;
  FaultSummary fault;

  /// Invariant-checker verdict (enabled=false when checking was off).
  trace::InvariantSummary invariants;
  /// Canonical trace text of the measurement phase (empty unless tracing).
  std::string trace_text;

  /// The one CellResult field list. The wire codec (sim/wire.h), the JSON
  /// writer (sim/json_export.h) and the export test all walk it. A visitor
  /// `v` provides:
  ///   v(key, field)                a result field
  ///   v.object(key, fields)        a nested object
  ///   v.object(key, gate, fields)  a nested object the JSON carries only
  ///                                when `gate` is set
  ///   v.computed(key, value)       derived for readers, never decoded
  ///   v.transport(key, field)      carried between processes, not a result
  template <class V>
  void visit(V& v) {
    v("workload", workload);
    v("algorithm", algorithm);
    v("scheme", scheme);
    v("measured_cycles", measured_cycles);
    v("core_ops", core_ops);
    v("l1_misses", l1_misses);
    v("avg_nuca_latency", avg_nuca_latency);
    v("avg_miss_latency", avg_miss_latency);
    v("avg_dram_latency", avg_dram_latency);
    v("l2_miss_rate", l2_miss_rate);
    v("avg_packet_latency", avg_packet_latency);
    v("avg_stored_ratio", avg_stored_ratio);
    v("link_flits", link_flits);
    v("inflight_compressions", inflight_compressions);
    v("inflight_decompressions", inflight_decompressions);
    v("source_compressions", source_compressions);
    v("compression_aborts", compression_aborts);
    v("decompression_aborts", decompression_aborts);
    v("hidden_decomp_ops", hidden_decomp_ops);
    v("exposed_decomp_cycles", exposed_decomp_cycles);
    v("exposed_comp_cycles", exposed_comp_cycles);
    v("ni_compressions", ni_compressions);
    v("ni_decompressions", ni_decompressions);
    v("engine_starts", engine_starts);
    v("sa_idle_losses", sa_idle_losses);
    v("l2_hits", l2_hits);
    v("l2_misses", l2_misses);
    v("l2_fills", l2_fills);
    v.object("energy", [&] {
      v("noc_dynamic_nj", energy.noc_dynamic_nj);
      v("noc_leakage_nj", energy.noc_leakage_nj);
      v("l2_dynamic_nj", energy.l2_dynamic_nj);
      v("l2_leakage_nj", energy.l2_leakage_nj);
      v("compressor_dynamic_nj", energy.compressor_dynamic_nj);
      v("compressor_leakage_nj", energy.compressor_leakage_nj);
      v("dram_nj", energy.dram_nj);
      v.computed("subsystem_nj", energy.subsystem_nj());
    });
    fault.visit(v);
    v.object("invariants", invariants.enabled, [&] {
      trace::InvariantSummary& s = invariants;
      v("events_checked", s.events_checked);
      v("cycles_checked", s.cycles_checked);
      v("violations", s.violations);
      v("credit_violations", s.credit_violations);
      v("conservation_violations", s.conservation_violations);
      v("vc_state_violations", s.vc_state_violations);
      v("shadow_violations", s.shadow_violations);
      v("confidence_violations", s.confidence_violations);
      v("eject_violations", s.eject_violations);
      v("cache_violations", s.cache_violations);
      v("first_violation", s.first_violation);
    });
    v.transport("trace_text", trace_text);
  }
};

struct RunOptions {
  /// Functional (untimed) warmup: references replayed per core to populate
  /// caches, directory and backing store before the clock starts.
  std::uint64_t warmup_ops_per_core = 24000;
  /// Timed warmup after the functional phase (fills queues/MSHRs).
  Cycle warmup_cycles = 20000;
  Cycle measure_cycles = 100000;
  /// Cooperative cancellation token, polled by the simulation loop every few
  /// hundred cycles; when set the cell unwinds with cmp::CancelledError so a
  /// timed-out or interrupted cell releases its pool slot. Null = never.
  const std::atomic<bool>* cancel = nullptr;

  // --- Mid-cell checkpointing -------------------------------------------
  /// When both `snapshot_interval` and `snapshot_path` are set, the
  /// measurement phase runs in interval-sized chunks and a full-system
  /// snapshot is written to `snapshot_path` (atomically) after each
  /// non-final chunk. If a valid snapshot for this cell already exists at
  /// `snapshot_path` the run resumes from it — skipping warmup and the
  /// already-measured cycles — and still produces byte-identical results.
  /// A stale / corrupted / mismatched snapshot is ignored (from-zero run).
  Cycle snapshot_interval = 0;    ///< 0 = checkpointing off
  std::string snapshot_path;      ///< empty = checkpointing off
  /// Out-param: cycles of measurement recovered from a snapshot instead of
  /// re-simulated (0 when no snapshot was restored). Null = don't report.
  std::uint64_t* resumed_from_cycles = nullptr;
  /// Crash drill: raise SIGKILL immediately after the first snapshot whose
  /// progress cursor reaches this cycle count (tests the kill-between-
  /// snapshots recovery path). 0 = never.
  Cycle debug_kill_at = 0;
};

/// The cell-identity digest a snapshot is stamped with: hashes the full
/// config summary, seed, workload name and phase parameters so a snapshot
/// can never restore into a different experiment cell.
std::uint64_t cell_digest(const SystemConfig& cfg,
                          const workload::BenchmarkProfile& profile,
                          const RunOptions& opt);

CellResult run_cell(const SystemConfig& cfg,
                    const workload::BenchmarkProfile& profile,
                    const RunOptions& opt);

/// Run the same workload under several schemes (identical everything else)
/// and return results in scheme order.
std::vector<CellResult> run_schemes(SystemConfig cfg,
                                    const workload::BenchmarkProfile& profile,
                                    const std::vector<Scheme>& schemes,
                                    const RunOptions& opt);

/// Geometric mean over positive values.
double geomean(const std::vector<double>& v);

}  // namespace disco::sim
