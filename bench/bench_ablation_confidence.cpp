// Section 3.2 ablation: the confidence mechanism's thresholds (CCth, CDth)
// and coefficients (beta). The paper trains these empirically on NoC
// traces; this sweep is that training experiment — it reports performance
// and engine efficiency (completions vs aborted hasty decisions) per
// setting on a congested workload.
#include "bench_util.h"

using namespace disco;

namespace {

struct Point {
  double ccth, cdth, beta;
};

}  // namespace

int main(int argc, char** argv) {
  const auto sweep_opt = bench::sweep_options(argc, argv, "ablation_confidence");
  SystemConfig base;
  base.algorithm = "delta";
  base.scheme = Scheme::DISCO;
  bench::print_banner("Ablation: DISCO confidence thresholds (Eq.1/Eq.2)", base);

  auto opt = bench::standard_options();
  opt.measure_cycles = 60000;
  // The confidence mechanism only has work to do under contention: stress
  // the workload to 3x its nominal intensity.
  workload::BenchmarkProfile profile = workload::profile_by_name("canneal");
  profile.mem_op_rate *= 3.0;

  const std::vector<Point> points = {
      {-100, -100, 0},  // hair-trigger: compress/decompress on any stall
      {0.5, 0.5, 1},    {1, 1, 1},       {2, 2, 1},
      {4, 4, 1},        {1, 1, 2},       {1, 1, 4},
      {8, 8, 2},        {1e18, 1e18, 1},  // engines disabled
  };

  // Every point must replay identical traffic (the sweep compares NUCA
  // latency across settings), so all cells share seed_group 0; each point
  // is still its own shard group.
  std::vector<sim::SweepCell> cells;
  for (std::size_t p = 0; p < points.size(); ++p) {
    sim::SweepCell c{base, profile, opt};
    c.cfg.disco.cc_threshold = points[p].ccth;
    c.cfg.disco.cd_threshold = points[p].cdth;
    c.cfg.disco.beta = points[p].beta;
    c.group = p;
    c.seed_group = 0;
    cells.push_back(std::move(c));
  }
  const auto sweep = sim::run_sweep(cells, sweep_opt);

  TablePrinter t({"CCth", "CDth", "beta", "NUCA latency", "router comp",
                  "router decomp", "hidden", "aborts (c+d)", "abort rate"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    const sim::CellResult* rp = sweep.ok(i);
    if (!rp) continue;
    const sim::CellResult& r = *rp;
    const std::uint64_t aborts = r.compression_aborts + r.decompression_aborts;
    const double ops = static_cast<double>(
        r.inflight_compressions + r.inflight_decompressions + aborts);
    t.add_row({p.ccth < -1 ? "-inf" : (p.ccth > 1e9 ? "+inf" : TablePrinter::fmt(p.ccth, 1)),
               p.cdth < -1 ? "-inf" : (p.cdth > 1e9 ? "+inf" : TablePrinter::fmt(p.cdth, 1)),
               TablePrinter::fmt(p.beta, 1),
               TablePrinter::fmt(r.avg_nuca_latency, 2),
               std::to_string(r.inflight_compressions),
               std::to_string(r.inflight_decompressions),
               std::to_string(r.hidden_decomp_ops),
               std::to_string(r.compression_aborts) + "+" +
                   std::to_string(r.decompression_aborts),
               ops > 0 ? TablePrinter::pct(static_cast<double>(aborts) / ops)
                       : "-"});
  }
  t.print(std::cout);
  bench::print_sweep_summary(sweep);
  return bench::exit_code(sweep);
}
