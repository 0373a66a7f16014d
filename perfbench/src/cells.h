// What one benchmark cell is, and the workloads built from cells. A cell is
// one simulated system run (construct -> functional warmup -> timed warmup
// -> chunked measurement) or one network-only run; a round runs every cell
// of a workload once. Every round repeats the same simulated work, so the
// simulated counts and fingerprints of a cell must match across rounds
// while only its host times vary.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "common/snapshot.h"
#include "common/types.h"
#include "ledger.h"
#include "workload/profile.h"

namespace perfbench {

/// Simulated cycles per measurement chunk, the sample behind chunk_ms_*.
/// Small enough that one round of every workload holds the >= 1000 chunks a
/// p99 with ten samples beyond it needs, with cells short enough to repeat
/// many times per run; chunk times are reported scaled to 1000 cycles.
inline constexpr disco::Cycle kChunkCycles = 25;

/// Host-time accumulators a traced network-only cell folds its per-cycle
/// calls into (see Ledger).
struct LayerAccums {
  Accum noc_tick;    ///< noc::Network::tick
  Accum noc_inject;  ///< noc::Network::inject
  Accum disco;       ///< every RouterExtension call into a DiscoUnit
  Accum compress;    ///< every Algorithm::compress / decompress
};

/// Tracing context of a traced round; cells get null in untraced rounds.
struct Trace {
  Ledger* ledger = nullptr;
  std::uint32_t cell = 0;  ///< ordinal stamped on this cell's spans
};

struct CellRun {
  std::string label;  ///< "<row>/<scheme>", e.g. "canneal/delta/DISCO"
  std::string row;    ///< normalization row: "<profile>/<algorithm>" or "uniform/delta"
  disco::Scheme scheme = disco::Scheme::Baseline;
  std::string algorithm;

  bool ok = true;
  std::string error;            ///< first failed check, when !ok
  std::uint64_t fingerprint = 0;  ///< hash of the cell's simulated statistics

  // Host seconds by phase.
  double construct_s = 0;
  double functional_warmup_s = 0;
  double timed_warmup_s = 0;
  double measure_s = 0;
  std::vector<double> chunk_s;  ///< one entry per kChunkCycles of measurement
  LayerAccums layers;           ///< filled by traced network-only cells

  // Simulated work of the timed phases (timed warmup + measurement).
  disco::Cycle timed_cycles = 0;
  std::uint64_t timed_link_flits = 0;
  std::uint64_t comp_calls = 0;    ///< compress() calls the counters imply
  std::uint64_t decomp_calls = 0;  ///< decompress() calls the counters imply

  // Modelled results (deterministic).
  double latency = 0;  ///< CMP: mean NUCA latency; network-only: mean packet latency
  double packet_latency_sum = 0;
  double packets = 0;
  double energy_nj = 0;  ///< modelled on-chip energy of the cell
  double energy_ops = 0; ///< CMP: core memory ops; network-only: delivered packets

  /// Per-layer simulated counts by metric name ("cache.l2_hits", ...).
  std::map<std::string, double> sim;

  double cell_s() const {
    return construct_s + functional_warmup_s + timed_warmup_s + measure_s;
  }
  double timed_s() const { return timed_warmup_s + measure_s; }
};

using Cell = std::function<CellRun(const Trace*)>;

struct Workload {
  std::string name;
  std::vector<Cell> cells;  ///< one round
  /// sim_nuca_latency_norm divides each row's DISCO latency by this scheme's.
  disco::Scheme reference = disco::Scheme::Ideal;
  /// Profiles whose generators and value synthesizers feed the cells (empty
  /// for network-only workloads).
  std::vector<const disco::workload::BenchmarkProfile*> profiles;
  /// Compressor corpus drawn from the data the workload's cells carry.
  std::vector<disco::BlockBytes> corpus;
  /// Phase-by-phase runner vs sim::run_cell on one reduced cell; returns an
  /// empty string on success, else what differed. Null when not applicable.
  std::function<std::string()> self_test;
};

/// Phase lengths of a full-CMP cell (sim::RunOptions' three knobs).
struct CmpPhases {
  std::uint64_t warmup_ops_per_core;
  disco::Cycle warmup_cycles;
  disco::Cycle measure_cycles;
};

Workload make_cmp_workload(const std::string& name,
                           const std::vector<std::string>& algorithms,
                           const CmpPhases& phases, std::uint64_t seed);
Workload make_noc_workload(const std::string& name, std::uint64_t seed);

/// Fingerprint of a cell's simulated statistics: CRC32 over the bit
/// patterns of the values added.
class Fingerprint {
 public:
  template <typename T>
  Fingerprint& add(T v) {
    static_assert(std::is_arithmetic_v<T>);
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    bytes_.insert(bytes_.end(), p, p + sizeof v);
    return *this;
  }
  std::uint64_t value() const { return disco::snap::crc32(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

}  // namespace perfbench
