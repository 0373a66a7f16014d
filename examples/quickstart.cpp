// Quickstart: simulate a 4x4 DISCO CMP on one PARSEC-like workload and
// print the headline metrics. This is the smallest end-to-end use of the
// public API:
//
//   SystemConfig -> CmpSystem -> run -> stats / energy
//
// Build & run:  ./build/examples/quickstart [workload] [scheme] [--verbose]
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>

#include "common/table.h"
#include "sim/experiment.h"
#include "sim/report.h"
#include "workload/profile.h"

using namespace disco;

int main(int argc, char** argv) {
  const std::string workload = argc > 1 ? argv[1] : "canneal";
  const std::string scheme = argc > 2 ? argv[2] : "disco";

  const std::optional<Scheme> parsed = scheme_from_name(scheme);
  if (!parsed) {
    std::fprintf(stderr,
                 "error: unknown scheme '%s' (baseline, cc, cnc, disco, ideal)\n",
                 scheme.c_str());
    return 2;
  }
  SystemConfig cfg;
  cfg.scheme = *parsed;
  cfg.algorithm = "delta";

  const auto& profile = workload::profile_by_name(workload);
  std::printf("DISCO quickstart: %s\n", cfg.summary().c_str());
  std::printf("workload: %s (footprint %llu blocks/core, write ratio %.2f)\n\n",
              profile.name.c_str(),
              static_cast<unsigned long long>(profile.footprint_blocks),
              profile.write_ratio);

  const bool verbose = argc > 3 && std::string(argv[3]) == "--verbose";
  sim::RunOptions opt;
  opt.measure_cycles = 80000;
  if (verbose) {
    // Drive the system directly so the full report has access to it.
    cmp::CmpSystem sys(cfg, profile);
    sys.functional_warmup(opt.warmup_ops_per_core);
    sys.run(opt.warmup_cycles);
    sys.reset_stats();
    sys.run(opt.measure_cycles);
    sim::print_system_report(std::cout, sys, opt.measure_cycles);
    return 0;
  }
  const sim::CellResult r = sim::run_cell(cfg, profile, opt);

  TablePrinter t({"metric", "value"});
  t.add_row({"core memory ops", std::to_string(r.core_ops)});
  t.add_row({"L1 misses", std::to_string(r.l1_misses)});
  t.add_row({"avg NUCA access latency (cycles)", TablePrinter::fmt(r.avg_nuca_latency, 1)});
  t.add_row({"avg miss latency incl. DRAM-served", TablePrinter::fmt(r.avg_miss_latency, 1)});
  t.add_row({"L2 miss rate", TablePrinter::pct(r.l2_miss_rate)});
  t.add_row({"avg NoC packet latency", TablePrinter::fmt(r.avg_packet_latency, 1)});
  t.add_row({"avg stored compression ratio", TablePrinter::fmt(r.avg_stored_ratio, 2)});
  t.add_row({"link flits", std::to_string(r.link_flits)});
  t.add_row({"in-network compressions", std::to_string(r.inflight_compressions)});
  t.add_row({"in-network decompressions", std::to_string(r.inflight_decompressions)});
  t.add_row({"aborted (non-blocking) ops", std::to_string(r.compression_aborts)});
  t.add_row({"hidden decompressions at eject", std::to_string(r.hidden_decomp_ops)});
  t.add_row({"subsystem energy (uJ)", TablePrinter::fmt(r.energy.subsystem_nj() / 1000.0, 1)});
  t.print(std::cout);
  return 0;
}
