// Full-CMP cells: the benchmark drives cmp::CmpSystem phase by phase (the
// same phases sim::run_cell runs) so it can time each phase and each
// measurement chunk from outside the simulator.
#include <algorithm>
#include <exception>

#include "cells.h"
#include "common/rng.h"
#include "energy/energy_model.h"
#include "sim/experiment.h"
#include "workload/value_synth.h"

namespace perfbench {
namespace {

using namespace disco;

/// The self-test cell.
constexpr CmpPhases kSelfTestPhases{1500, 500, 1500};
/// Untimed drain after measurement (a healthy cell drains in a few hundred
/// cycles; the tests allow 30000-40000 at this scale).
constexpr Cycle kDrainCycles = 40000;

constexpr Scheme kSchemes[] = {Scheme::Ideal, Scheme::CC, Scheme::CNC,
                               Scheme::DISCO};
/// Spans L2 pressure and read/write mix: canneal and streamcluster are
/// capacity-hungry, x264 writes 40% of its references, swaptions is
/// cache-friendly and writes 20%.
const char* const kProfiles[] = {"canneal", "streamcluster", "x264",
                                 "swaptions"};
constexpr std::size_t kCorpusBlocksPerProfile = 256;

sim::RunOptions run_options(const CmpPhases& p) {
  sim::RunOptions opt;
  opt.warmup_ops_per_core = p.warmup_ops_per_core;
  opt.warmup_cycles = p.warmup_cycles;
  opt.measure_cycles = p.measure_cycles;
  return opt;
}

/// The CellResult fields sim::run_cell fills for a fault-free, untraced
/// cell, read from a system that has just finished its measurement phase.
/// The self-test holds this copy to run_cell's extraction.
sim::CellResult result_of(const cmp::CmpSystem& sys, const SystemConfig& cfg,
                          const workload::BenchmarkProfile& profile,
                          Cycle measure_cycles) {
  const auto& cs = sys.cache_stats();
  const auto& ns = sys.noc_stats();
  sim::CellResult r;
  r.workload = profile.name;
  r.algorithm = cfg.algorithm;
  r.scheme = cfg.scheme;
  r.measured_cycles = measure_cycles;
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
  r.energy = energy::compute_energy(ns, cs, cfg, measure_cycles,
                                    sys.algorithm().hardware_overhead() / 0.023);
  return r;
}

std::uint64_t fingerprint_of(const sim::CellResult& r) {
  Fingerprint f;
  f.add(std::uint64_t{r.measured_cycles})
      .add(r.core_ops)
      .add(r.l1_misses)
      .add(r.avg_nuca_latency)
      .add(r.avg_miss_latency)
      .add(r.avg_dram_latency)
      .add(r.l2_miss_rate)
      .add(r.avg_packet_latency)
      .add(r.avg_stored_ratio)
      .add(r.link_flits)
      .add(r.inflight_compressions)
      .add(r.inflight_decompressions)
      .add(r.source_compressions)
      .add(r.compression_aborts)
      .add(r.decompression_aborts)
      .add(r.hidden_decomp_ops)
      .add(r.exposed_decomp_cycles)
      .add(r.energy.subsystem_nj())
      .add(r.energy.dram_nj);
  return f.value();
}

/// de/compress() calls implied by the counters of one phase (estimate: an
/// engine start that was not a decompression is counted as a compression).
void count_codec_calls(const cmp::CmpSystem& sys, CellRun& run) {
  const auto& cs = sys.cache_stats();
  const auto& ns = sys.noc_stats();
  const std::uint64_t engine_decomp =
      ns.inflight_decompressions + ns.decompression_aborts;
  run.comp_calls += cs.bank_compressions + ns.ni_compressions +
                    ns.source_compressions + ns.engine_starts - engine_decomp;
  run.decomp_calls +=
      cs.bank_decompressions + ns.ni_decompressions + engine_decomp;
  run.sim["compress.calls"] +=
      static_cast<double>(cs.bank_compressions + cs.bank_decompressions +
                          ns.ni_compressions + ns.ni_decompressions +
                          ns.engine_starts + ns.source_compressions);
}

void record_sim(cmp::CmpSystem& sys, const sim::CellResult& r, CellRun& run) {
  const auto& cs = sys.cache_stats();
  const auto& ns = sys.noc_stats();
  const std::uint32_t nodes = sys.config().noc.num_nodes();
  auto& m = run.sim;

  double window = 0, blocked = 0;
  for (NodeId n = 0; n < nodes; ++n) {
    window += static_cast<double>(sys.core(n).window_stalls());
    blocked += static_cast<double>(sys.core(n).blocked_stalls());
  }
  m["cmp.core_ops"] = static_cast<double>(r.core_ops);
  m["cmp.window_stall_cycles"] = window;
  m["cmp.blocked_stall_cycles"] = blocked;

  m["compress.stored_ratio"] = r.avg_stored_ratio;

  const double component_cycles =
      static_cast<double>(nodes) * static_cast<double>(sys.now());
  m["noc.link_flits"] = static_cast<double>(ns.link_flits);
  m["noc.packets_ejected"] = static_cast<double>(ns.packets_ejected);
  m["noc.alloc_ops"] = static_cast<double>(ns.alloc_ops);
  m["noc.sa_idle_losses"] = static_cast<double>(ns.sa_idle_losses);
  m["noc.router_elided_ratio"] =
      static_cast<double>(sys.network().router_ticks_elided()) / component_cycles;
  m["noc.ni_elided_ratio"] =
      static_cast<double>(sys.network().ni_ticks_elided()) / component_cycles;
  m["noc.queueing_cycles_p50"] =
      static_cast<double>(ns.queueing_cycles.approx_quantile(0.50));
  m["noc.queueing_cycles_p99"] =
      static_cast<double>(ns.queueing_cycles.approx_quantile(0.99));

  if (run.scheme == Scheme::DISCO) {
    m["disco.engine_starts"] = static_cast<double>(ns.engine_starts);
    m["disco.completed"] = static_cast<double>(ns.inflight_compressions +
                                               ns.inflight_decompressions);
    m["disco.aborts"] = static_cast<double>(ns.compression_aborts +
                                            ns.decompression_aborts);
    m["disco.hidden_decomp_ops"] = static_cast<double>(ns.hidden_decomp_ops);
    m["disco.exposed_decomp_cycles"] =
        static_cast<double>(ns.exposed_decomp_cycles);
  }

  m["cache.l1_misses"] = static_cast<double>(cs.l1_misses);
  m["cache.l2_hits"] = static_cast<double>(cs.l2_hits);
  m["cache.l2_misses"] = static_cast<double>(cs.l2_misses);
  m["cache.bank_compressions"] = static_cast<double>(cs.bank_compressions);
  m["cache.bank_decompressions"] = static_cast<double>(cs.bank_decompressions);
  m["cache.dram_reads"] = static_cast<double>(cs.dram_reads);
  m["cache.nuca_latency_cycles"] = r.avg_nuca_latency;

  run.latency = r.avg_nuca_latency;
  for (const auto& acc : ns.packet_latency) {
    run.packet_latency_sum += acc.sum();
    run.packets += static_cast<double>(acc.count());
  }
  run.energy_nj = r.energy.subsystem_nj();
  run.energy_ops = static_cast<double>(r.core_ops);
}

CellRun run_cmp_cell(const SystemConfig& cfg,
                     const workload::BenchmarkProfile& profile,
                     const CmpPhases& ph, const Trace* tr) {
  CellRun run;
  run.row = profile.name + "/" + cfg.algorithm;
  run.scheme = cfg.scheme;
  run.algorithm = cfg.algorithm;
  run.label = run.row + "/" + to_string(cfg.scheme);
  Ledger* ledger = tr != nullptr ? tr->ledger : nullptr;
  const std::uint32_t cell = tr != nullptr ? tr->cell : 0;
  auto span = [&](const char* name, std::int64_t t0, std::int64_t t1) {
    if (ledger != nullptr) ledger->record(name, cell, t0, t1);
  };

  try {
    const std::int64_t t0 = cpu_now_ns();
    cmp::CmpSystem sys(cfg, profile);
    const std::int64_t t1 = cpu_now_ns();
    sys.functional_warmup(ph.warmup_ops_per_core);
    const std::int64_t t2 = cpu_now_ns();
    sys.run(ph.warmup_cycles);
    const std::int64_t t3 = cpu_now_ns();
    span("construct", t0, t1);
    span("functional_warmup", t1, t2);
    span("timed_warmup", t2, t3);
    run.construct_s = seconds_between(t0, t1);
    run.functional_warmup_s = seconds_between(t1, t2);
    run.timed_warmup_s = seconds_between(t2, t3);

    // reset_stats() clears the timed warmup's counts; keep what the timed
    // phases need first.
    run.timed_link_flits = sys.noc_stats().link_flits;
    count_codec_calls(sys, run);
    sys.reset_stats();

    run.chunk_s.reserve(ph.measure_cycles / kChunkCycles + 1);
    for (Cycle done = 0; done < ph.measure_cycles;) {
      const Cycle chunk = std::min(kChunkCycles, ph.measure_cycles - done);
      const std::int64_t c0 = cpu_now_ns();
      sys.run(chunk);
      const std::int64_t c1 = cpu_now_ns();
      span("chunk", c0, c1);
      run.chunk_s.push_back(seconds_between(c0, c1));
      run.measure_s += seconds_between(c0, c1);
      done += chunk;
    }
    run.timed_cycles = ph.warmup_cycles + ph.measure_cycles;
    run.timed_link_flits += sys.noc_stats().link_flits;
    count_codec_calls(sys, run);

    const sim::CellResult r = result_of(sys, cfg, profile, ph.measure_cycles);
    run.fingerprint = fingerprint_of(r);
    record_sim(sys, r, run);

    // Correctness, outside the timed region: the network must drain with
    // its credits back at full depth and no silent corruption. Coherence
    // transactions that never retire (a liveness defect of the model on a
    // few seeds; the statistics above are still exactly as simulated) are
    // counted in cache.stuck_transactions rather than failed.
    double stuck = 0;
    if (!sys.drain(kDrainCycles)) {
      for (NodeId n = 0; n < sys.config().noc.num_nodes(); ++n)
        stuck += static_cast<double>(sys.l1(n).mshr_in_use() +
                                     sys.l2(n).active_transactions());
    }
    run.sim["cache.stuck_transactions"] = stuck;
    if (!sys.network().quiescent()) {
      run.ok = false;
      run.error = "network did not drain";
    } else if (!sys.network().credits_quiescent()) {
      run.ok = false;
      run.error = "credits not back at full depth after drain";
    } else if (sys.noc_stats().silent_corruptions != 0) {
      run.ok = false;
      run.error = "silent corruptions";
    }
  } catch (const std::exception& e) {
    run.ok = false;
    run.error = e.what();
  }
  return run;
}

}  // namespace

Workload make_cmp_workload(const std::string& name,
                           const std::vector<std::string>& algorithms,
                           const CmpPhases& phases, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.reference = Scheme::Ideal;
  SystemConfig base;  // Table 2 defaults: 4x4 mesh
  base.seed = seed;
  for (const char* p : kProfiles)
    w.profiles.push_back(&workload::profile_by_name(p));

  for (const std::string& algo : algorithms) {
    for (const auto* profile : w.profiles) {
      for (const Scheme s : kSchemes) {
        SystemConfig cfg = base;
        cfg.algorithm = algo;
        cfg.scheme = s;
        w.cells.push_back([cfg, profile, phases](const Trace* tr) {
          return run_cmp_cell(cfg, *profile, phases, tr);
        });
      }
    }
  }

  for (const auto* profile : w.profiles) {
    const workload::ValueSynthesizer synth(profile->values, seed);
    for (std::uint64_t i = 0; i < kCorpusBlocksPerProfile; ++i)
      w.corpus.push_back(
          synth.block_for(splitmix64(seed, i) % (1ULL << 30) * kBlockBytes));
  }

  // The last algorithm exercises SC2's retraining when the workload has it.
  SystemConfig st = base;
  st.algorithm = algorithms.back();
  st.scheme = Scheme::DISCO;
  const workload::BenchmarkProfile* st_profile = w.profiles.front();
  w.self_test = [st, st_profile]() -> std::string {
    const std::uint64_t ref =
        fingerprint_of(sim::run_cell(st, *st_profile, run_options(kSelfTestPhases)));
    const CellRun a = run_cmp_cell(st, *st_profile, kSelfTestPhases, nullptr);
    const CellRun b = run_cmp_cell(st, *st_profile, kSelfTestPhases, nullptr);
    if (!a.ok) return a.label + ": " + a.error;
    if (!b.ok) return b.label + ": " + b.error;
    if (a.fingerprint != ref)
      return "phase-by-phase runner differs from sim::run_cell";
    if (b.fingerprint != a.fingerprint)
      return "two runs of one cell in one process differ";
    return {};
  };
  return w;
}

}  // namespace perfbench
