// Section 3.3B ablation: the packet-scheduling rule that gives
// compressible-but-uncompressed packets the lowest priority so they idle
// (and get compressed) more often. On/off comparison across workloads.
#include "bench_util.h"

using namespace disco;

int main(int argc, char** argv) {
  const auto sweep_opt = bench::sweep_options(argc, argv, "ablation_scheduling");
  SystemConfig base;
  base.algorithm = "delta";
  base.scheme = Scheme::DISCO;
  bench::print_banner("Ablation: low priority for compressible packets (3.3B)",
                      base);

  auto opt = bench::standard_options();
  opt.measure_cycles = 60000;

  const std::vector<std::string> names = {"canneal", "dedup", "streamcluster",
                                          "x264", "swaptions", "vips"};
  // Row per workload with (rule on, rule off) cells sharing a seed.
  std::vector<sim::SweepCell> cells;
  for (std::size_t w = 0; w < names.size(); ++w) {
    // The rule only matters under contention: stress the workload to 3x its
    // nominal intensity so packets actually compete for ports.
    workload::BenchmarkProfile profile = workload::profile_by_name(names[w]);
    profile.mem_op_rate *= 3.0;
    for (const bool rule_on : {true, false}) {
      sim::SweepCell c{base, profile, opt};
      c.cfg.noc.deprioritize_compressible = rule_on;
      c.group = w;
      cells.push_back(std::move(c));
    }
  }
  const auto sweep = sim::run_sweep(cells, sweep_opt);

  TablePrinter t({"Workload", "NUCA lat (rule on)", "NUCA lat (rule off)",
                  "router comp on", "router comp off", "delta"});
  for (std::size_t w = 0; w < names.size(); ++w) {
    const auto rs = bench::grid_row(sweep, w * 2, 2);
    if (rs.empty()) continue;
    const sim::CellResult& r_on = *rs[0];
    const sim::CellResult& r_off = *rs[1];
    t.add_row({names[w], TablePrinter::fmt(r_on.avg_nuca_latency, 2),
               TablePrinter::fmt(r_off.avg_nuca_latency, 2),
               std::to_string(r_on.inflight_compressions),
               std::to_string(r_off.inflight_compressions),
               TablePrinter::pct((r_off.avg_nuca_latency - r_on.avg_nuca_latency) /
                                 r_off.avg_nuca_latency)});
  }
  t.print(std::cout);
  bench::print_sweep_summary(sweep);
  return bench::exit_code(sweep);
}
