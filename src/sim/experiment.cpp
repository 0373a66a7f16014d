#include "sim/experiment.h"

#include <algorithm>
#include <csignal>
#include <cmath>
#include <cstring>
#include <fstream>
#include <span>
#include <sstream>
#include <unistd.h>

#include "common/snapshot.h"

namespace disco::sim {

std::uint64_t cell_digest(const SystemConfig& cfg,
                          const workload::BenchmarkProfile& profile,
                          const RunOptions& opt) {
  std::ostringstream id;
  id << cfg.summary() << '|' << cfg.seed << '|' << cfg.algorithm << '|'
     << static_cast<int>(cfg.scheme) << '|' << profile.name << '|'
     << opt.warmup_ops_per_core << '|' << opt.warmup_cycles << '|'
     << opt.measure_cycles;
  const std::string s = id.str();
  return snap::crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

namespace {

/// Restore-or-warmup, then the measurement loop. On exit `sys` has simulated
/// exactly opt.measure_cycles of measurement. Without checkpointing the
/// loop runs one chunk and never saves or restores.
void run_measurement(cmp::CmpSystem& sys, const SystemConfig& cfg,
                     const workload::BenchmarkProfile& profile,
                     const RunOptions& opt) {
  const bool checkpointing =
      opt.snapshot_interval > 0 && !opt.snapshot_path.empty();
  const std::uint64_t digest =
      checkpointing ? cell_digest(cfg, profile, opt) : 0;
  Cycle done = 0;
  if (checkpointing && ::access(opt.snapshot_path.c_str(), R_OK) == 0) {
    try {
      done = sys.restore_snapshot(opt.snapshot_path, digest);
      if (done > opt.measure_cycles) done = opt.measure_cycles;
    } catch (const snap::SnapshotError&) {
      // Corrupted / truncated / different-cell snapshot: fall back to a
      // from-zero run. The file is superseded by the next good snapshot.
      done = 0;
    }
  }
  if (opt.resumed_from_cycles) *opt.resumed_from_cycles = done;
  if (done == 0) {
    sys.functional_warmup(opt.warmup_ops_per_core);
    sys.run(opt.warmup_cycles);
    sys.reset_stats();
  }

  const Cycle interval =
      checkpointing ? opt.snapshot_interval : opt.measure_cycles;
  while (done < opt.measure_cycles) {
    const Cycle chunk = std::min<Cycle>(interval, opt.measure_cycles - done);
    sys.run(chunk);
    done += chunk;
    if (checkpointing && done < opt.measure_cycles) {
      sys.save_snapshot(opt.snapshot_path, done, digest);
      if (opt.debug_kill_at > 0 && done >= opt.debug_kill_at)
        ::raise(SIGKILL);  // crash drill: die right between snapshots
    }
  }
}

}  // namespace

CellResult extract_result(const cmp::CmpSystem& sys,
                          const workload::BenchmarkProfile& profile,
                          Cycle measure_cycles) {
  const SystemConfig& cfg = sys.config();
  CellResult r;
  static_cast<noc::NocStats&>(r) = sys.noc_stats();
  static_cast<cache::CacheStats&>(r) = sys.cache_stats();
  r.workload = profile.name;
  r.algorithm = cfg.algorithm;
  r.scheme = cfg.scheme;
  r.measured_cycles = measure_cycles;
  r.core_ops = sys.total_core_ops();
  r.avg_nuca_latency = r.nuca_latency.mean();
  r.avg_miss_latency = r.miss_latency.mean();
  r.avg_dram_latency = r.dram_latency.mean();
  r.l2_miss_rate = sys.cache_stats().l2_miss_rate();
  r.avg_packet_latency = sys.noc_stats().avg_packet_latency();
  r.avg_stored_ratio = r.stored_line_bytes.count() > 0
                           ? static_cast<double>(kBlockBytes) /
                                 r.stored_line_bytes.mean()
                           : 1.0;
  r.energy = energy::compute_energy(r, r, cfg, measure_cycles,
                                    sys.algorithm().hardware_overhead() / 0.023);
  if (const fault::FaultInjector* fi = sys.fault_injector()) {
    static_cast<fault::FaultCounters&>(r.fault) = fi->counters();
    r.fault.enabled = true;
    r.fault.hard_enabled = cfg.fault.hard_enabled();
    r.fault.hard_faults_applied = sys.hard_faults_applied();
  }
  if (const trace::InvariantChecker* chk = sys.invariant_checker())
    r.invariants = chk->summary();
  if (const trace::Tracer* t = sys.tracer(); t != nullptr && cfg.trace.enabled) {
    std::ostringstream os;
    t->write_canonical(os);
    r.trace_text = os.str();
  }
  return r;
}

CellResult run_cell(const SystemConfig& cfg,
                    const workload::BenchmarkProfile& profile,
                    const RunOptions& opt) {
  cmp::CmpSystem sys(cfg, profile);
  run_measurement(sys, cfg, profile, opt);
  CellResult r = extract_result(sys, profile, opt.measure_cycles);
  if (const trace::Tracer* t = sys.tracer();
      t != nullptr && cfg.trace.enabled && !cfg.trace.out_path.empty()) {
    std::ofstream f(cfg.trace.out_path);
    if (f) t->write_chrome_json(f);
  }
  return r;
}

std::vector<CellResult> run_schemes(SystemConfig cfg,
                                    const workload::BenchmarkProfile& profile,
                                    const std::vector<Scheme>& schemes,
                                    const RunOptions& opt) {
  std::vector<CellResult> out;
  out.reserve(schemes.size());
  for (const Scheme s : schemes) {
    cfg.scheme = s;
    out.push_back(run_cell(cfg, profile, opt));
  }
  return out;
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

}  // namespace disco::sim
