// Shared plumbing for the figure/table benches: standard run options, the
// Table-2 banner, grid-row lookup and the seed-paired verdict of
// bench_ablation (the Fig. 5-8 grid is in figures.h). Every
// bench prints through TablePrinter so outputs are uniform and diffable
// against EXPERIMENTS.md, and every bench runs its cells through the
// parallel sweep engine (--threads N, --shard i/k; see sim/sweep.h).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/interrupt.h"
#include "common/table.h"
#include "compress/registry.h"
#include "sim/experiment.h"
#include "sim/sweep.h"
#include "workload/profile.h"

namespace disco::bench {

inline sim::RunOptions standard_options() {
  sim::RunOptions opt;
  opt.warmup_ops_per_core = 24000;
  opt.warmup_cycles = 15000;
  opt.measure_cycles = 80000;
  return opt;
}

/// Parse the standard sweep flags; benches take no other arguments, so any
/// positional argument is an error. Also installs the SIGINT/SIGTERM
/// handlers so an interrupted bench flushes partial results + checkpoint
/// manifest and exits with code 130 instead of dying mid-write.
inline sim::SweepOptions sweep_options(int argc, char** argv,
                                       const char* label) {
  std::vector<std::string> positional;
  sim::SweepOptions opt = sim::parse_sweep_flags(argc, argv, positional);
  if (!positional.empty()) {
    std::fprintf(stderr, "%s: unexpected argument '%s' (try --help)\n",
                 argv[0], positional.front().c_str());
    std::exit(2);
  }
  opt.progress_label = label;
  sim::install_interrupt_handlers();
  return opt;
}

/// Standard bench exit code: 0 all ok, 130 interrupted (partial results were
/// still flushed), 1 any cell failed/crashed/timed out or broke an invariant.
inline int exit_code(const sim::SweepResult& r) {
  if (r.interrupted) return 130;
  return r.all_ok() ? 0 : 1;
}

/// Exit code for run_indexed-based benches, which have no SweepResult: 130
/// when a SIGINT/SIGTERM cut the run short, else 0.
inline int exit_code_indexed() { return interrupt_requested() ? 130 : 0; }

inline void print_banner(const char* title, const SystemConfig& cfg) {
  std::printf("=== %s ===\n", title);
  std::printf("system: %s\n", cfg.summary().c_str());
  std::printf("router: 3-stage pipeline, wormhole, %u-flit VCs | L1 32KB/4-way"
              " | L2 %u-way NUCA, 4-cycle hit | DRAM %u cycles\n\n",
              cfg.noc.vc_depth_flits, cfg.l2.ways, cfg.mem.access_latency);
}

/// Shorthand for the 13 PARSEC-like workloads.
inline const std::vector<workload::BenchmarkProfile>& workloads() {
  return workload::parsec_profiles();
}

/// The `count` results of a grid row starting at cell `first`, or an empty
/// vector when any of them failed or fell outside this shard (the bench
/// then skips that row instead of printing a half-normalized one).
inline std::vector<const sim::CellResult*> grid_row(const sim::SweepResult& r,
                                                    std::size_t first,
                                                    std::size_t count) {
  std::vector<const sim::CellResult*> row;
  row.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const sim::CellResult* cell = r.ok(first + i);
    if (!cell) return {};
    row.push_back(cell);
  }
  return row;
}

/// Quantile `q` of `v` by linear interpolation between order statistics.
inline double quantile(std::vector<double> v, double q) {
  assert(!v.empty());
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

inline double iqr(const std::vector<double>& v) {
  return quantile(v, 0.75) - quantile(v, 0.25);
}

/// Seed-paired comparison of a metric: pair k of `baseline` and `variant`
/// ran the same seed.
struct Verdict {
  std::size_t lower = 0;   ///< pairs where the variant is lower (ties: neither)
  std::size_t higher = 0;  ///< pairs where the variant is higher
  double gap = 0;          ///< median(variant) - median(baseline)
  /// "lower" or "higher" when the variant lands on that side in at least 9
  /// of every 10 pairs and |gap| exceeds the baseline's IQR; otherwise
  /// "within seed spread".
  const char* text = "";
};

inline Verdict verdict(const std::vector<double>& baseline,
                       const std::vector<double>& variant) {
  assert(!baseline.empty() && baseline.size() == variant.size());
  Verdict v;
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    if (variant[i] < baseline[i]) ++v.lower;
    if (variant[i] > baseline[i]) ++v.higher;
  }
  v.gap = median(variant) - median(baseline);
  const double spread = iqr(baseline);
  const auto decisive = [&](std::size_t wins) {
    return wins * 10 >= baseline.size() * 9;
  };
  if (decisive(v.lower) && -v.gap > spread) {
    v.text = "lower";
  } else if (decisive(v.higher) && v.gap > spread) {
    v.text = "higher";
  } else {
    v.text = "within seed spread";
  }
  return v;
}

/// Footer every bench prints: failed/skipped accounting for sharded runs,
/// plus the invariant-checker verdict when --check-invariants was given.
inline void print_sweep_summary(const sim::SweepResult& r) {
  std::printf("\nsweep: %zu cells ok, %zu failed (%zu crashed), %zu skipped "
              "(other shards), %.1fs wall\n",
              r.completed, r.failed, r.crashed, r.skipped, r.wall_ms / 1000.0);
  if (r.interrupted)
    std::printf("sweep: INTERRUPTED — partial results above; rerun with "
                "--resume <dir>/manifest.jsonl to finish\n");
  std::size_t checked = 0;
  std::uint64_t events = 0, violations = 0;
  std::string first;
  for (const auto& c : r.cells) {
    if (!c.ok() || !c.result.invariants.enabled) continue;
    ++checked;
    events += c.result.invariants.events_checked;
    violations += c.result.invariants.violations;
    if (first.empty()) first = c.result.invariants.first_violation;
  }
  if (checked > 0) {
    std::printf("invariants: %zu cells checked, %llu events, %llu violations"
                " in %zu cells\n",
                checked, static_cast<unsigned long long>(events),
                static_cast<unsigned long long>(violations), r.dirty());
    if (!first.empty())
      std::printf("invariants: first violation: %s\n", first.c_str());
  }
}

}  // namespace disco::bench
