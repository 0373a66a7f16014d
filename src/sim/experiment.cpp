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

/// Restore-or-warmup, then the chunked measurement loop. Returns nothing;
/// on exit `sys` has simulated exactly opt.measure_cycles of measurement.
void run_measurement(cmp::CmpSystem& sys, const SystemConfig& cfg,
                     const workload::BenchmarkProfile& profile,
                     const RunOptions& opt) {
  const bool checkpointing =
      opt.snapshot_interval > 0 && !opt.snapshot_path.empty();
  if (!checkpointing) {
    sys.functional_warmup(opt.warmup_ops_per_core);
    sys.run(opt.warmup_cycles);
    sys.reset_stats();
    sys.run(opt.measure_cycles);
    return;
  }

  const std::uint64_t digest = cell_digest(cfg, profile, opt);
  Cycle done = 0;
  if (::access(opt.snapshot_path.c_str(), R_OK) == 0) {
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

  while (done < opt.measure_cycles) {
    const Cycle chunk =
        std::min<Cycle>(opt.snapshot_interval, opt.measure_cycles - done);
    sys.run(chunk);
    done += chunk;
    if (done < opt.measure_cycles) {
      sys.save_snapshot(opt.snapshot_path, done, digest);
      if (opt.debug_kill_at > 0 && done >= opt.debug_kill_at)
        ::raise(SIGKILL);  // crash drill: die right between snapshots
    }
  }
}

}  // namespace

CellResult run_cell(const SystemConfig& cfg,
                    const workload::BenchmarkProfile& profile,
                    const RunOptions& opt) {
  cmp::CmpSystem sys(cfg, profile);
  run_measurement(sys, cfg, profile, opt);

  const auto& cs = sys.cache_stats();
  const auto& ns = sys.noc_stats();

  CellResult r;
  r.workload = profile.name;
  r.algorithm = cfg.algorithm;
  r.scheme = cfg.scheme;
  r.measured_cycles = opt.measure_cycles;
  r.core_ops = sys.total_core_ops();
  r.l1_misses = cs.l1_misses;
  r.avg_nuca_latency = cs.nuca_latency.mean();
  r.avg_miss_latency = cs.miss_latency.mean();
  r.avg_dram_latency = cs.dram_latency.mean();
  r.l2_miss_rate = cs.l2_miss_rate();
  r.avg_packet_latency = ns.avg_packet_latency();
  r.avg_stored_ratio = cs.stored_line_bytes.count() > 0
                           ? static_cast<double>(kBlockBytes) /
                                 cs.stored_line_bytes.mean()
                           : 1.0;
  r.link_flits = ns.link_flits;
  r.inflight_compressions = ns.inflight_compressions;
  r.inflight_decompressions = ns.inflight_decompressions;
  r.source_compressions = ns.source_compressions;
  r.compression_aborts = ns.compression_aborts;
  r.decompression_aborts = ns.decompression_aborts;
  r.hidden_decomp_ops = ns.hidden_decomp_ops;
  r.exposed_decomp_cycles = ns.exposed_decomp_cycles;
  r.exposed_comp_cycles = ns.exposed_comp_cycles;
  r.ni_compressions = ns.ni_compressions;
  r.ni_decompressions = ns.ni_decompressions;
  r.engine_starts = ns.engine_starts;
  r.sa_idle_losses = ns.sa_idle_losses;
  r.l2_hits = cs.l2_hits;
  r.l2_misses = cs.l2_misses;
  r.l2_fills = cs.l2_fills;
  r.energy = energy::compute_energy(ns, cs, cfg, opt.measure_cycles,
                                    sys.algorithm().hardware_overhead() / 0.023);
  if (const fault::FaultInjector* fi = sys.fault_injector()) {
    static_cast<fault::FaultCounters&>(r.fault) = fi->counters();
    r.fault.enabled = true;
    r.fault.crc_checks = ns.crc_checks;
    r.fault.corruptions_detected = ns.corruptions_detected;
    r.fault.silent_corruptions = ns.silent_corruptions;
    r.fault.flit_loss_timeouts = ns.flit_loss_timeouts;
    r.fault.nacks_sent = ns.nacks_sent;
    r.fault.retransmissions = ns.retransmissions;
    r.fault.retransmit_deliveries = ns.retransmit_deliveries;
    r.fault.backoff_cycles = ns.backoff_cycles;
    r.fault.duplicate_flits_dropped = ns.duplicate_flits_dropped;
    r.fault.duplicate_retransmissions = ns.duplicate_retransmissions;
    r.fault.unrecovered_deliveries = ns.unrecovered_deliveries;
    r.fault.engine_decode_errors = ns.engine_decode_errors;
    r.fault.engines_quarantined = ns.engines_quarantined;
    if (cfg.fault.hard_enabled()) {
      r.fault.hard_enabled = true;
      r.fault.hard_faults_applied = sys.hard_faults_applied();
      r.fault.links_killed = ns.links_killed;
      r.fault.routers_killed = ns.routers_killed;
      r.fault.engines_hard_failed = ns.engines_hard_failed;
      r.fault.banks_killed = ns.banks_killed;
      r.fault.unreachable_drops = ns.unreachable_drops;
      r.fault.dead_component_drops = ns.dead_component_drops;
      r.fault.flits_destroyed = ns.flits_destroyed;
      r.fault.severed_packets = ns.severed_packets;
      r.fault.reroutes = ns.reroutes;
      r.fault.bypass_retransmits = ns.bypass_retransmits;
      r.fault.synth_completions = ns.synth_completions;
    }
  }
  if (const trace::InvariantChecker* chk = sys.invariant_checker())
    r.invariants = chk->summary();
  if (trace::Tracer* t = sys.tracer(); t != nullptr && cfg.trace.enabled) {
    std::ostringstream os;
    t->write_canonical(os);
    r.trace_text = os.str();
    if (!cfg.trace.out_path.empty()) {
      std::ofstream f(cfg.trace.out_path);
      if (f) t->write_chrome_json(f);
    }
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
