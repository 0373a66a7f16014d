#include "sim/experiment.h"

#include <cmath>
#include <fstream>
#include <sstream>

namespace disco::sim {

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
  sys.functional_warmup(opt.warmup_ops_per_core);
  sys.run(opt.warmup_cycles);
  sys.reset_stats();
  sys.run(opt.measure_cycles);
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
