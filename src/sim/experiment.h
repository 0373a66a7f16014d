// Experiment harness: runs one (scheme x algorithm x workload x mesh) cell
// with warmup + measurement phases and extracts the metrics the paper's
// tables and figures report. Every bench binary is a thin driver over this.
#pragma once

#include <string>
#include <vector>

#include "cmp/system.h"
#include "energy/energy_model.h"

namespace disco::sim {

/// Fault-injection gates and injector counters for one cell (all zero, and
/// `enabled` false, when the cell ran without an injector). Detection,
/// recovery and degradation counters are NocStats fields of the result.
struct FaultSummary : fault::FaultCounters {
  bool enabled = false;
  /// True when the cell ran with a hard-fault schedule (--hard-fault /
  /// --hard-fault-rate).
  bool hard_enabled = false;
  std::uint64_t hard_faults_applied = 0;  ///< whole run, survives phase resets

  /// Part of the CellResult field list: the `fault` and `hard_fault`
  /// objects.
  template <class V>
  void visit(V& v) {
    v.object("fault", enabled, [&] { FaultCounters::visit(v); });
    v.object("hard_fault", hard_enabled,
             [&] { v("applied", hard_faults_applied); });
  }
};

/// One cell's result. The measurement phase's NoC and cache counters are
/// its two bases, so every counter is declared once (in noc/noc_stats.h and
/// cache/stats.h) and reaches the JSON as the `noc` and `cache` objects.
struct CellResult : noc::NocStats, cache::CacheStats {
  std::string workload;
  std::string algorithm;
  Scheme scheme = Scheme::Baseline;

  Cycle measured_cycles = 0;
  std::uint64_t core_ops = 0;

  /// The Fig. 5/6/8 metric (pre-normalization): average NUCA data access
  /// latency of L1 misses served on chip (NoC + bank), in cycles.
  double avg_nuca_latency = 0;
  /// All L1 misses including DRAM-served ones.
  double avg_miss_latency = 0;
  double avg_dram_latency = 0;
  double l2_miss_rate = 0;        ///< hides CacheStats::l2_miss_rate()
  double avg_packet_latency = 0;  ///< hides NocStats::avg_packet_latency()
  double avg_stored_ratio = 0;    ///< compression ratio of resident L2 lines

  energy::EnergyBreakdown energy;
  FaultSummary fault;

  /// Invariant-checker verdict (enabled=false when checking was off).
  trace::InvariantSummary invariants;
  /// Canonical trace text of the measurement phase (empty unless tracing).
  std::string trace_text;

  /// The one CellResult field list. The JSON writer (sim/json_export.h),
  /// which is also the wire encoder, the wire decoder (sim/wire.h) and the
  /// tests all walk it. A visitor `v` provides:
  ///   v(key, field)                a result field: a string, number or
  ///                                Scheme, a C array of fields, or a type
  ///                                with its own labeled `visit` list
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
    v("avg_nuca_latency", avg_nuca_latency);
    v("avg_miss_latency", avg_miss_latency);
    v("avg_dram_latency", avg_dram_latency);
    v("l2_miss_rate", l2_miss_rate);
    v("avg_packet_latency", avg_packet_latency);
    v("avg_stored_ratio", avg_stored_ratio);
    v("noc", static_cast<noc::NocStats&>(*this));
    v("cache", static_cast<cache::CacheStats&>(*this));
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
      v("topology_violations", s.topology_violations);
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
};

/// The result of `sys` right after `measure_cycles` of measurement: its
/// NoC and cache counters, the derived means, energy, fault counters,
/// invariant verdict and trace text.
CellResult extract_result(const cmp::CmpSystem& sys,
                          const workload::BenchmarkProfile& profile,
                          Cycle measure_cycles);

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
