// Fault-resilience sweep: delivered-block integrity and latency overhead of
// the DISCO system under injected faults. Each row is one fault-rate point
// (bit flips on links and LLC readout at the stated rate; flit drops and
// duplicates at rate/10; engine faults/stalls at the stated rate), run over
// a representative workload subset and compared against the fault-free run
// of the same traffic.
//
// The bench exits nonzero if any delivered block was silently corrupt —
// the invariant the CI fault-smoke job asserts.
//
// A second table measures graceful degradation under permanent hardware
// failure: k = 0..4 staggered mid-run kills (DISCO engine, link, LLC bank,
// whole router tile — the mesh stays connected throughout), reporting
// latency/energy relative to the healthy run of the same traffic plus the
// reroute / severed-recovery / synthesized-completion counters.
#include "bench_util.h"

#include "fault/fault.h"

using namespace disco;

namespace {

FaultConfig faults_at(double rate, const FaultConfig& knobs) {
  FaultConfig f = knobs;  // keep --fault-crc/--fault-retries/--fault-backoff
  f.enabled = true;       // enabled even at rate 0: the zero-rate row checks
                          // that the recovery machinery itself is neutral
  f.link_bit_flip_rate = rate;
  f.llc_bit_flip_rate = rate;
  f.flit_drop_rate = rate / 10.0;
  f.flit_duplicate_rate = rate / 10.0;
  f.engine_fault_rate = rate;
  f.engine_stall_rate = rate;
  return f;
}

}  // namespace

int main(int argc, char** argv) {
  const auto sweep_opt = bench::sweep_options(argc, argv, "fault");
  SystemConfig base;
  base.algorithm = "delta";
  base.scheme = Scheme::DISCO;
  bench::print_banner("Fault resilience: integrity and overhead vs fault rate",
                      base);

  auto opt = bench::standard_options();
  opt.measure_cycles = 60000;
  const std::vector<double> rates = {0.0, 1e-4, 1e-3, 1e-2};
  const std::vector<std::string> names = {"canneal", "dedup", "streamcluster"};
  std::vector<workload::BenchmarkProfile> profiles;
  for (const auto& name : names)
    profiles.push_back(workload::profile_by_name(name));

  // Grid: (workload x rate) cells. One group per workload, so every rate
  // point replays identical traffic against its own fault-free sibling.
  std::vector<sim::SweepCell> cells;
  for (std::size_t w = 0; w < profiles.size(); ++w) {
    for (const double rate : rates) {
      sim::SweepCell c{base, profiles[w], opt};
      c.cfg.fault = faults_at(rate, sweep_opt.fault);
      c.group = w;
      cells.push_back(std::move(c));
    }
  }
  const auto sweep = sim::run_sweep(cells, sweep_opt);

  TablePrinter t({"Rate", "Faults", "Engine", "Detected", "Retransmit", "Recovered %",
                  "Unrecovered", "Silent", "Timeouts", "Quarantined",
                  "Latency/clean"});
  std::uint64_t total_silent = 0;
  bool all_rows = true;
  for (std::size_t ri = 0; ri < rates.size(); ++ri) {
    sim::CellResult agg;
    double lat = 0, lat_clean = 0;
    std::size_t rows = 0;
    for (std::size_t w = 0; w < profiles.size(); ++w) {
      const auto rs = bench::grid_row(sweep, w * rates.size(), rates.size());
      if (rs.empty()) continue;
      const sim::CellResult& f = *rs[ri];
      agg.fault.link_bit_flips += f.fault.link_bit_flips;
      agg.fault.llc_bit_flips += f.fault.llc_bit_flips;
      agg.fault.flit_drops += f.fault.flit_drops;
      agg.fault.flit_duplicates += f.fault.flit_duplicates;
      agg.fault.engine_faults += f.fault.engine_faults;
      agg.corruptions_detected += f.corruptions_detected;
      agg.silent_corruptions += f.silent_corruptions;
      agg.flit_loss_timeouts += f.flit_loss_timeouts;
      agg.retransmissions += f.retransmissions;
      agg.retransmit_deliveries += f.retransmit_deliveries;
      agg.unrecovered_deliveries += f.unrecovered_deliveries;
      agg.engines_quarantined += f.engines_quarantined;
      lat += rs[ri]->avg_nuca_latency;
      lat_clean += rs[0]->avg_nuca_latency;
      ++rows;
    }
    if (rows == 0) {
      all_rows = false;
      continue;
    }
    total_silent += agg.silent_corruptions;
    const std::uint64_t affected =
        agg.corruptions_detected + agg.flit_loss_timeouts;
    const double recovered =
        affected > 0 ? 100.0 *
                           static_cast<double>(affected -
                                               agg.unrecovered_deliveries) /
                           static_cast<double>(affected)
                     : 100.0;
    char rate_s[32];
    std::snprintf(rate_s, sizeof rate_s, "%g", rates[ri]);
    t.add_row({rate_s, std::to_string(agg.fault.payload_faults() +
                                      agg.fault.flit_drops +
                                      agg.fault.flit_duplicates),
               std::to_string(agg.fault.engine_faults),
               std::to_string(agg.corruptions_detected),
               std::to_string(agg.retransmissions),
               TablePrinter::fmt(recovered, 2),
               std::to_string(agg.unrecovered_deliveries),
               std::to_string(agg.silent_corruptions),
               std::to_string(agg.flit_loss_timeouts),
               std::to_string(agg.engines_quarantined),
               TablePrinter::fmt(lat / lat_clean, 3)});
  }
  t.print(std::cout);

  // --- graceful degradation under permanent failures -----------------------
  // Staggered kills inside the measurement window (warmup ends at cycle
  // 15000): each row k applies the first k of these. Node 6's router, the
  // node 9 east link, node 10's bank and node 5's engines leave the 4x4
  // mesh connected, so every surviving tile stays reachable.
  const std::vector<HardFaultEvent> kills = fault::parse_hard_fault_spec(
      "engine@22000:5,link@30000:9:E,llc@38000:10,router@46000:6");

  std::vector<sim::SweepCell> hard_cells;
  for (std::size_t w = 0; w < profiles.size(); ++w) {
    for (std::size_t k = 0; k <= kills.size(); ++k) {
      sim::SweepCell c{base, profiles[w], opt};
      c.cfg.fault = sweep_opt.fault;
      c.cfg.fault.enabled = true;  // k = 0: recovery layer live, nothing dies
      c.cfg.fault.hard_faults.assign(kills.begin(), kills.begin() + k);
      c.group = w;
      hard_cells.push_back(std::move(c));
    }
  }
  auto hard_opt = sweep_opt;
  hard_opt.progress_label = "hard-fault";
  const auto hard_sweep = sim::run_sweep(hard_cells, hard_opt);

  std::printf("\nGraceful degradation: %zu staggered permanent kills "
              "(engine, link, LLC bank, router tile)\n", kills.size());
  TablePrinter ht({"Dead", "Last kill", "Reroutes", "Severed", "Synth",
                   "Drops", "BypassRetx", "Silent", "Latency/clean",
                   "Energy/clean"});
  const std::size_t hk = kills.size() + 1;
  bool all_hard_rows = true;
  for (std::size_t k = 0; k < hk; ++k) {
    sim::CellResult agg;
    double lat = 0, lat_clean = 0, nj = 0, nj_clean = 0;
    std::size_t rows = 0;
    for (std::size_t w = 0; w < profiles.size(); ++w) {
      const auto rs = bench::grid_row(hard_sweep, w * hk, hk);
      if (rs.empty()) continue;
      const sim::CellResult& f = *rs[k];
      agg.reroutes += f.reroutes;
      agg.severed_packets += f.severed_packets;
      agg.synth_completions += f.synth_completions;
      agg.unreachable_drops += f.unreachable_drops;
      agg.dead_component_drops += f.dead_component_drops;
      agg.bypass_retransmits += f.bypass_retransmits;
      agg.silent_corruptions += f.silent_corruptions;
      lat += rs[k]->avg_nuca_latency;
      lat_clean += rs[0]->avg_nuca_latency;
      nj += rs[k]->energy.subsystem_nj();
      nj_clean += rs[0]->energy.subsystem_nj();
      ++rows;
    }
    if (rows == 0) {
      all_hard_rows = false;
      continue;
    }
    total_silent += agg.silent_corruptions;
    ht.add_row({std::to_string(k),
                k == 0 ? "-" : to_string(kills[k - 1].kind),
                std::to_string(agg.reroutes),
                std::to_string(agg.severed_packets),
                std::to_string(agg.synth_completions),
                std::to_string(agg.unreachable_drops +
                               agg.dead_component_drops),
                std::to_string(agg.bypass_retransmits),
                std::to_string(agg.silent_corruptions),
                TablePrinter::fmt(lat / lat_clean, 3),
                TablePrinter::fmt(nj / nj_clean, 3)});
  }
  ht.print(std::cout);

  std::printf("\nend-to-end check: every delivered block is CRC-verified "
              "against its ground truth;\nsilent corruptions found: %llu\n",
              static_cast<unsigned long long>(total_silent));
  bench::print_sweep_summary(sweep);
  bench::print_sweep_summary(hard_sweep);
  if (total_silent > 0) {
    std::fprintf(stderr, "FAIL: %llu silently corrupt block(s) delivered\n",
                 static_cast<unsigned long long>(total_silent));
    return 1;
  }
  if (const int rc = bench::exit_code(sweep); rc != 0) return rc;
  if (const int rc = bench::exit_code(hard_sweep); rc != 0) return rc;
  return all_rows && all_hard_rows ? 0 : 1;
}
