// Crash-resilient sweep supervisor. Each cell runs once in a forked child
// process (--isolate) that reports its CellResult back over a pipe in the
// lossless wire format (wire.h); the parent is a single-threaded poll()
// scheduler that enforces wall-clock budgets with SIGTERM -> grace ->
// SIGKILL escalation and an optional resident-set cap, and journals every
// finished cell to an append-only checkpoint manifest (atomic tmp + rename
// per cell). No cell is retried: cells are deterministic, so a crashed,
// hung or over-RSS cell would fail the same way again. A later run with
// --resume adopts the manifest's Ok cells verbatim and reruns the rest, so
// its aggregate output is byte-identical to an uninterrupted run. On a
// crash or hang the child flushes a postmortem black box (tracer ring tail,
// invariant summary, last-progress cycle, stall census) next to the
// manifest.
//
// run_sweep hands a sweep to the supervisor whenever SupervisorOptions is
// active, so every supervisor flag (--timeout-ms, --checkpoint-dir, --resume,
// --max-rss-mb, ...) forks its cells; --isolate alone asks for nothing else.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/sweep.h"

namespace disco::sim {

/// One journaled cell outcome from a checkpoint manifest.
struct ManifestEntry {
  std::size_t cell = 0;
  std::size_t group = 0;
  CellStatus status = CellStatus::Failed;
  unsigned attempts = 0;
  std::string error;
  bool has_result = false;
  CellResult result;   ///< decoded bit-exactly; valid when has_result
  std::string line;    ///< original JSONL line, re-journaled verbatim on resume
};

/// Parsed checkpoint manifest: one header line (sweep shape) + one entry
/// line per finished cell.
struct Manifest {
  std::size_t cells = 0;
  std::uint64_t base_seed = 0;
  unsigned shard_index = 0;
  unsigned shard_count = 1;
  std::vector<ManifestEntry> entries;
};

/// Load <path> (JSONL). Throws std::runtime_error when the file is missing
/// or has no valid header line; an unparseable entry line is dropped (the
/// cell simply reruns), never fatal.
Manifest load_manifest(const std::string& path);

}  // namespace disco::sim
