// Extension ablation: online threshold adaptation. The paper keeps CCth and
// CDth "deterministic for simplicity" and notes their best values depend on
// congestion; this bench implements the deferred congestion-aware variant
// and compares static vs adaptive thresholds across load levels.
#include "bench_util.h"

using namespace disco;

int main(int argc, char** argv) {
  const auto sweep_opt = bench::sweep_options(argc, argv, "ablation_adaptive");
  SystemConfig base;
  base.algorithm = "delta";
  base.scheme = Scheme::DISCO;
  bench::print_banner("Ablation: static vs adaptive confidence thresholds",
                      base);

  auto opt = bench::standard_options();
  opt.measure_cycles = 60000;

  const std::vector<double> loads = {1.0, 2.0, 3.0, 4.0};
  // Row per load level, (static, adaptive) cells inside; both variants of a
  // row share a seed so they see identical traffic.
  std::vector<sim::SweepCell> cells;
  for (std::size_t l = 0; l < loads.size(); ++l) {
    workload::BenchmarkProfile profile = workload::profile_by_name("canneal");
    profile.mem_op_rate *= loads[l];
    for (const bool adaptive : {false, true}) {
      sim::SweepCell c{base, profile, opt};
      c.cfg.disco.adaptive_thresholds = adaptive;
      c.group = l;
      cells.push_back(std::move(c));
    }
  }
  const auto sweep = sim::run_sweep(cells, sweep_opt);

  TablePrinter t({"load (x nominal)", "variant", "NUCA latency", "router ops",
                  "aborts (comp+decomp)", "abort rate"});
  for (std::size_t l = 0; l < loads.size(); ++l) {
    const auto rs = bench::grid_row(sweep, l * 2, 2);
    if (rs.empty()) continue;
    for (std::size_t v = 0; v < 2; ++v) {
      const sim::CellResult& r = *rs[v];
      const std::uint64_t aborts =
          r.compression_aborts + r.decompression_aborts;
      const double ops = static_cast<double>(
          r.inflight_compressions + r.inflight_decompressions + aborts);
      t.add_row({TablePrinter::fmt(loads[l], 1),
                 v == 1 ? "adaptive" : "static",
                 TablePrinter::fmt(r.avg_nuca_latency, 2),
                 std::to_string(r.inflight_compressions +
                                r.inflight_decompressions),
                 std::to_string(r.compression_aborts) + "+" +
                     std::to_string(r.decompression_aborts),
                 ops > 0 ? TablePrinter::pct(static_cast<double>(aborts) / ops)
                         : "-"});
    }
  }
  t.print(std::cout);
  bench::print_sweep_summary(sweep);
  return bench::exit_code(sweep);
}
