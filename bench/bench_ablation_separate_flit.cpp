// Section 3.3A ablation: separate-flit compression under wormhole flow
// control (the mode DISCO adopts) vs whole-packet-only compression. The
// separate mode starts compressing with the first flit group instead of
// waiting for full residency, at a small encoding-size penalty for the
// group-concatenation tags.
#include "bench_util.h"

using namespace disco;

int main(int argc, char** argv) {
  const auto sweep_opt =
      bench::sweep_options(argc, argv, "ablation_separate_flit");
  SystemConfig base;
  base.algorithm = "delta";
  base.scheme = Scheme::DISCO;
  bench::print_banner("Ablation: separate-flit compression (3.3A)", base);

  auto opt = bench::standard_options();
  opt.measure_cycles = 60000;

  const std::vector<std::string> names = {"canneal", "dedup", "streamcluster",
                                          "x264"};
  std::vector<sim::SweepCell> cells;
  for (std::size_t w = 0; w < names.size(); ++w) {
    // In-router compression needs contention: stress to 3x nominal rate.
    workload::BenchmarkProfile profile = workload::profile_by_name(names[w]);
    profile.mem_op_rate *= 3.0;
    for (const bool separate : {true, false}) {
      sim::SweepCell c{base, profile, opt};
      c.cfg.disco.separate_flit_compression = separate;
      c.group = w;
      cells.push_back(std::move(c));
    }
  }
  const auto sweep = sim::run_sweep(cells, sweep_opt);

  TablePrinter t({"Workload", "NUCA lat (separate)", "NUCA lat (whole-pkt)",
                  "router comp sep", "router comp whole", "aborts sep",
                  "aborts whole"});
  for (std::size_t w = 0; w < names.size(); ++w) {
    const auto rs = bench::grid_row(sweep, w * 2, 2);
    if (rs.empty()) continue;
    const sim::CellResult& r_sep = *rs[0];
    const sim::CellResult& r_whole = *rs[1];
    t.add_row({names[w], TablePrinter::fmt(r_sep.avg_nuca_latency, 2),
               TablePrinter::fmt(r_whole.avg_nuca_latency, 2),
               std::to_string(r_sep.inflight_compressions),
               std::to_string(r_whole.inflight_compressions),
               std::to_string(r_sep.compression_aborts +
                              r_sep.decompression_aborts),
               std::to_string(r_whole.compression_aborts +
                              r_whole.decompression_aborts)});
  }
  t.print(std::cout);
  bench::print_sweep_summary(sweep);
  return bench::exit_code(sweep);
}
