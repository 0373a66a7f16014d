// Parallel sweep engine: runs independent experiment cells (one run_cell
// each) on a work-queue thread pool. Every figure/table in the paper is a
// sweep over (scheme x algorithm x workload x mesh) cells and each cell is
// shared-nothing, so the evaluation matrix parallelizes embarrassingly.
//
// Guarantees:
//   - Determinism: each cell's RNG seed is splitmix64(base_seed, seed_group)
//     — a pure function of the cell's position in the sweep, never of
//     execution order — and results are aggregated in input order, so an
//     N-thread run emits bit-identical metrics to a serial run.
//   - Robustness: a cell that throws is recorded as Failed (with the
//     exception text) instead of aborting the whole sweep; it is not retried,
//     since a deterministic cell would fail the same way again. An optional
//     wall-clock timeout records TimedOut and reclaims the worker via the
//     cell's cooperative cancellation token.
//   - Crash resilience: with SupervisorOptions active (--isolate,
//     --checkpoint-dir, --resume) each cell runs in a forked child process,
//     so a SIGSEGV or a hard hang kills one cell — retried with backoff,
//     postmortem black box on disk — never the sweep. Completed cells are
//     journaled to an append-only manifest and --resume replays them
//     byte-identically (see supervisor.h).
//   - Sharding: `--shard i/k` splits a sweep across machines by cell group,
//     so rows that normalize against a sibling cell stay intact.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/experiment.h"
#include "workload/profile.h"

namespace disco::sim {

/// Crash-resilient execution knobs (see supervisor.h). The supervisor takes
/// over the sweep when any of these is set; with all defaults the sweep runs
/// on the classic in-process thread pool.
struct SupervisorOptions {
  /// Run each cell attempt in a forked child process; a crash or hard hang
  /// costs one cell attempt, never the sweep.
  bool isolate = false;
  /// Journal every finished cell to <dir>/manifest.jsonl (atomic rewrite +
  /// rename per cell) and write postmortem black boxes here.
  std::string checkpoint_dir;
  /// Path of a prior run's manifest: its Ok cells are adopted verbatim (the
  /// wire format is bit-exact) and only the rest are run.
  std::string resume_manifest;
  /// Extra attempts after the first for a crashed / timed-out / failed cell.
  unsigned max_retries = 1;
  /// Delay before retry r is retry_backoff_ms << (r - 1).
  std::uint64_t retry_backoff_ms = 100;
  /// After a timeout: SIGTERM (child) or cancellation-token (thread) grace
  /// before escalating to SIGKILL / detach.
  std::uint64_t hang_grace_ms = 2000;

  // --- mid-cell checkpointing ------------------------------------------
  /// When > 0 (and checkpoint_dir is set, isolated mode), each forked
  /// worker snapshots its full simulation state to
  /// <checkpoint_dir>/snap-cell<i>.bin every N measured cycles; a retried
  /// attempt (after a crash, SIGKILL or timeout) resumes from the last
  /// good snapshot instead of recomputing from cycle 0, byte-identically.
  /// Corrupted / mismatched snapshots are rejected by checksum and the
  /// retry falls back to a from-zero run. 0 = off.
  std::uint64_t snapshot_interval_cycles = 0;
  /// Resident-set cap per isolated child, in MiB: a worker whose RSS
  /// exceeds it is SIGKILLed and journaled as `resource_exhausted`
  /// (distinct from crashes and hangs), honoring retry/backoff. 0 = off.
  std::uint64_t max_rss_mb = 0;

  // --- deterministic fault hooks for tests and the CI recovery drill ---
  /// Cell index that SIGSEGVs (isolated) / throws (in-process); -1 = none.
  int debug_crash_cell = -1;
  /// Cell index that hangs until killed / cancelled; -1 = none.
  int debug_hang_cell = -1;
  /// Cell index that throws a non-std::exception value; -1 = none.
  int debug_throw_cell = -1;
  /// Cell index whose isolated child raises SIGKILL on itself right after
  /// the first snapshot at or past debug_kill_cycle (tests the
  /// kill-between-snapshots recovery path); -1 = none.
  int debug_kill_cell = -1;
  std::uint64_t debug_kill_cycle = 0;
  /// The hooks fire only while the cell's attempt number is <= this, so a
  /// retried cell recovers (set very high to exhaust retries instead).
  unsigned debug_crash_attempts = 1;

  bool active() const {
    return isolate || !checkpoint_dir.empty() || !resume_manifest.empty() ||
           snapshot_interval_cycles > 0 || max_rss_mb > 0 ||
           debug_crash_cell >= 0 || debug_hang_cell >= 0 ||
           debug_throw_cell >= 0 || debug_kill_cell >= 0;
  }
};

struct SweepOptions {
  /// Worker threads; 0 means max(1, hardware_concurrency - 1).
  unsigned threads = 0;
  /// Per-cell seeds derive from this (see SweepCell::seed_group).
  std::uint64_t base_seed = 1;
  /// When false, cells keep the seed already in their SystemConfig.
  bool reseed_cells = true;
  /// Wall-clock budget per cell attempt; 0 disables the timeout.
  std::uint64_t cell_timeout_ms = 0;
  /// Run only cells whose group satisfies group % shard_count == shard_index;
  /// the rest are recorded as Skipped.
  unsigned shard_index = 0;
  unsigned shard_count = 1;
  /// Progress reporting (cells done / total, ETA) on stderr.
  bool progress = true;
  std::string progress_label = "sweep";
  /// Fault-injection knobs (--fault-* flags); disabled unless any rate flag
  /// is given. Benches apply this to their cells via configure_faults().
  FaultConfig fault;
  /// Tracing / invariant-checking knobs (--trace, --trace-filter,
  /// --check-invariants). run_sweep applies them to every cell; out_path is
  /// expanded to <prefix>-cell<i>.json per cell.
  TraceConfig trace;
  /// In-sim no-progress watchdog (--progress-watchdog N): applied to every
  /// cell's SystemConfig so a deadlocked / livelocked cell fails with a
  /// classified NoProgressError instead of burning its wall-clock budget.
  std::uint64_t progress_watchdog_cycles = 0;
  /// Crash-resilient execution (--isolate, --checkpoint-dir, --resume, ...).
  SupervisorOptions supervisor;
};

struct SweepCell {
  SystemConfig cfg;
  workload::BenchmarkProfile profile;
  RunOptions opt;

  static constexpr std::size_t kAuto = static_cast<std::size_t>(-1);
  /// Sharding granule. Cells sharing a group always land in the same shard,
  /// so a bench row that normalizes several schemes against each other is
  /// never split across machines. Defaults to the cell's own index.
  std::size_t group = kAuto;
  /// Seed granule: cells sharing a seed_group replay identical workload
  /// traffic (required when cells of a row are compared against each other).
  /// Defaults to `group`.
  std::size_t seed_group = kAuto;
};

enum class CellStatus : std::uint8_t {
  Ok,
  Failed,       ///< threw (any type — rendered to a structured error string)
  TimedOut,     ///< exceeded the wall-clock budget; worker/child reclaimed
  Skipped,      ///< not in this shard
  Crashed,      ///< isolated child died on a signal (SIGSEGV, ...)
  Interrupted,  ///< SIGINT/SIGTERM shutdown before the cell could finish
  /// Isolated child exceeded its --max-rss-mb resident-set cap and was
  /// SIGKILLed by the supervisor — a resource outcome distinct from
  /// crashes and hangs, so memory regressions are visible in manifests.
  ResourceExhausted,
};

const char* to_string(CellStatus s);

struct SweepCellOutcome {
  std::size_t index = 0;
  std::size_t group = 0;
  CellStatus status = CellStatus::Skipped;
  unsigned attempts = 0;
  double wall_ms = 0;
  /// Measurement cycles recovered from a mid-cell snapshot by the attempt
  /// that finished this cell (0 = it ran from cycle 0). Journaled in the
  /// manifest so `manifest_inspect` can report work saved by checkpointing.
  std::uint64_t snap_saved_cycles = 0;
  std::string error;    ///< exception text of the last failed attempt
  CellResult result;    ///< valid only when status == CellStatus::Ok

  bool ok() const { return status == CellStatus::Ok; }
};

struct SweepResult {
  std::vector<SweepCellOutcome> cells;  ///< input order, one per input cell
  std::size_t completed = 0;
  std::size_t failed = 0;   ///< Failed + TimedOut + Crashed
  std::size_t crashed = 0;  ///< the Crashed subset of `failed`
  std::size_t skipped = 0;  ///< not in this shard
  /// A SIGINT/SIGTERM shutdown cut the sweep short; partial results and the
  /// checkpoint manifest (if any) were still flushed.
  bool interrupted = false;
  double wall_ms = 0;

  bool all_ok() const { return failed == 0 && !interrupted; }
  /// The Ok cell at `index`, or nullptr if it failed or was skipped.
  const CellResult* ok(std::size_t index) const;
  /// All Ok results in input order (failed/skipped cells omitted).
  std::vector<CellResult> ok_results() const;
};

/// Run the sweep. Dispatches to the crash-resilient supervisor
/// (run_sweep_supervised) when opt.supervisor.active(); may throw
/// std::runtime_error if a resume manifest does not match the sweep.
SweepResult run_sweep(const std::vector<SweepCell>& cells,
                      const SweepOptions& opt);

/// Generic parallel map over [0, count) on the same thread pool with the
/// same ordered-completion progress reporting, for sweeps whose cells are
/// not run_cell invocations (network-only load/latency points, per-algorithm
/// corpus scans). `fn` must write its result into caller-owned, per-index
/// storage; no timeout/retry wrapping is applied.
void run_indexed(std::size_t count, const std::function<void(std::size_t)>& fn,
                 const SweepOptions& opt);

/// Install SIGINT/SIGTERM handlers that raise the process interrupt flag
/// (common/interrupt.h): workers stop claiming cells, running cells unwind
/// via their cancellation tokens, partial results and the checkpoint
/// manifest are flushed, and drivers exit with code 130. A second signal
/// exits immediately.
void install_interrupt_handlers();

/// Parse the standard sweep flags (--threads N, --shard i/k, --seed S,
/// --no-progress, --timeout-ms T, --isolate, --checkpoint-dir D, --resume M,
/// --help, ...) out of argv; every unrecognized argument is appended to
/// `positional` in order. Exits with a usage message on malformed flags or
/// --help. The DISCO_DEBUG_{CRASH,HANG,THROW}_CELL / DISCO_DEBUG_CRASH_ATTEMPTS
/// environment variables seed the corresponding debug hooks.
SweepOptions parse_sweep_flags(int argc, char** argv,
                               std::vector<std::string>& positional);

}  // namespace disco::sim
