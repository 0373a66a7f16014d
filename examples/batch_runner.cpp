// Batch runner: sweep (workloads x schemes) cells on the parallel sweep
// engine and emit machine-readable JSON for external plotting/regression
// tooling — the programmatic counterpart of the figure benches.
//
// Run: ./build/examples/batch_runner [--threads N] [--shard i/k] [--seed S]
//        [--isolate] [--checkpoint-dir D] [--resume M]
//        [algorithm] [out.json] [workload...]
//
// JSON output is aggregated in cell order regardless of thread count, so a
// run with --threads 8 is byte-identical to --threads 1 — and a run resumed
// from a checkpoint manifest is byte-identical to an uninterrupted one.
// SIGINT/SIGTERM flush partial JSON + manifest and exit 130.
#include <cstdio>
#include <fstream>
#include <iostream>

#include "common/interrupt.h"
#include "sim/experiment.h"
#include "sim/json_export.h"
#include "sim/sweep.h"
#include "workload/profile.h"

using namespace disco;

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  sim::SweepOptions sweep_opt = sim::parse_sweep_flags(argc, argv, positional);
  sweep_opt.progress_label = "batch";
  sim::install_interrupt_handlers();

  SystemConfig cfg;
  cfg.algorithm = !positional.empty() ? positional[0] : "delta";
  try {
    (void)compress::make_algorithm(cfg.algorithm);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  cfg.fault = sweep_opt.fault;
  try {
    // Fail fast on degenerate meshes / out-of-mesh hard-fault targets before
    // spawning worker threads; every cell shares this base config.
    cfg.validate();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  const std::string out_path = positional.size() > 1 ? positional[1] : "results.json";

  std::vector<std::string> names(
      positional.begin() + std::min<std::size_t>(2, positional.size()),
      positional.end());
  if (names.empty()) names = {"canneal", "dedup", "streamcluster", "swaptions"};

  sim::RunOptions opt;
  opt.measure_cycles = 60000;

  const std::vector<Scheme> schemes = {Scheme::Baseline, Scheme::Ideal,
                                       Scheme::CC, Scheme::CNC, Scheme::DISCO};
  std::vector<sim::SweepCell> cells;
  for (std::size_t w = 0; w < names.size(); ++w) {
    const workload::BenchmarkProfile* profile = nullptr;
    try {
      profile = &workload::profile_by_name(names[w]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
    for (const Scheme s : schemes) {
      sim::SweepCell c{cfg, *profile, opt};
      c.cfg.scheme = s;
      c.group = w;  // all schemes of a workload share a seed and a shard
      cells.push_back(std::move(c));
    }
  }

  sim::SweepResult sweep;
  try {
    sweep = sim::run_sweep(cells, sweep_opt);
  } catch (const std::runtime_error& e) {
    // A resume manifest that does not match this sweep's shape is a usage
    // error, not a crash.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  for (const auto& cell : sweep.cells) {
    if (!cell.ok()) continue;
    std::printf("  %-14s %-8s nuca=%.1f cycles\n", cell.result.workload.c_str(),
                to_string(cell.result.scheme), cell.result.avg_nuca_latency);
  }
  for (const auto& cell : sweep.cells) {
    if (cell.ok() || cell.status == sim::CellStatus::Skipped) continue;
    std::printf("  cell %zu %s: %s\n", cell.index, to_string(cell.status),
                cell.error.c_str());
  }

  const auto results = sweep.ok_results();
  std::ofstream out(out_path);
  sim::write_json(out, results);
  std::printf("\nwrote %zu cells to %s (%zu failed, %zu crashed, %zu in other"
              " shards)\n",
              results.size(), out_path.c_str(), sweep.failed, sweep.crashed,
              sweep.skipped);
  if (const std::size_t dirty = sweep.dirty(); dirty > 0)
    std::printf("invariants: %zu cells recorded violations (exit 1)\n", dirty);
  if (sweep.interrupted) {
    std::fprintf(stderr, "interrupted: partial results flushed to %s%s\n",
                 out_path.c_str(),
                 sweep_opt.supervisor.checkpoint_dir.empty()
                     ? ""
                     : "; resume from the checkpoint manifest");
    return 130;
  }
  return sweep.all_ok() ? 0 : 1;
}
