// Checkpoint-manifest inspector: summarize (or dump) a sweep supervisor
// manifest.jsonl — per-status counts, attempts, errors — so a failed nightly
// sweep can be triaged without parsing JSONL by hand.
//
// Cells are also classified into outcome classes: a cell that crashed,
// hung or failed "died"; an Ok cell that absorbed permanent hard faults
// (kills applied, traffic rerouted/synthesized around them) is "degraded
// by design" — expected under a --hard-fault schedule, not a triage item;
// everything else is "clean".
//
// Usage: manifest_inspect <manifest.jsonl> [--cells]
//   --cells   also print one line per journaled cell
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "sim/supervisor.h"

using namespace disco;

namespace {

/// Outcome class of a journaled cell (see header comment).
const char* outcome_of(const sim::ManifestEntry& e) {
  if (e.status != sim::CellStatus::Ok) return "died";
  if (e.has_result && e.result.fault.hard_enabled &&
      e.result.fault.hard_faults_applied > 0) {
    return "degraded";
  }
  return "clean";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <manifest.jsonl> [--cells]\n", argv[0]);
    return 2;
  }
  const bool show_cells = argc > 2 && std::strcmp(argv[2], "--cells") == 0;

  sim::Manifest m;
  try {
    m = sim::load_manifest(argv[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  std::printf("manifest: %s\n", argv[1]);
  std::printf("sweep: %zu cells, base_seed %llu, shard %u/%u\n", m.cells,
              static_cast<unsigned long long>(m.base_seed), m.shard_index,
              m.shard_count);

  std::map<std::string, std::size_t> by_status;
  std::map<std::string, std::size_t> by_outcome;
  std::uint64_t kills_absorbed = 0;
  for (const auto& e : m.entries) {
    ++by_status[to_string(e.status)];
    ++by_outcome[outcome_of(e)];
    if (e.has_result) kills_absorbed += e.result.components_killed();
  }
  std::printf("journaled: %zu of %zu cells (%zu outstanding)\n",
              m.entries.size(), m.cells,
              m.cells >= m.entries.size() ? m.cells - m.entries.size() : 0);
  for (const auto& [status, n] : by_status)
    std::printf("  %-12s %zu\n", status.c_str(), n);

  std::printf("outcome classes:\n");
  for (const auto& [outcome, n] : by_outcome)
    std::printf("  %-12s %zu%s\n", outcome.c_str(), n,
                outcome == "degraded" ? "  (hard faults absorbed by design)"
                                      : "");
  if (kills_absorbed > 0)
    std::printf("  permanent components killed across sweep: %llu\n",
                static_cast<unsigned long long>(kills_absorbed));

  if (show_cells) {
    std::printf("\n%-6s %-6s %-18s %-9s %-8s %s\n", "cell", "group",
                "status", "outcome", "attempts", "error");
    for (const auto& e : m.entries)
      std::printf("%-6zu %-6zu %-18s %-9s %-8u %s\n", e.cell, e.group,
                  to_string(e.status), outcome_of(e), e.attempts,
                  e.error.c_str());
  }

  // Exit 1 when any journaled cell is not Ok, so scripts can gate on it.
  for (const auto& e : m.entries)
    if (e.status != sim::CellStatus::Ok) return 1;
  return 0;
}
