// Figures 5-8 from one sweep over the grid of bench/figures.h, printed in
// figure order:
//   - Fig. 5: average on-chip (NUCA) data access latency under delta-based
//     compression for CC, CNC and DISCO across the PARSEC-like workloads,
//     normalized to the Ideal system (compression with zero de/compression
//     overhead). Paper: "DISCO surpasses CC by 12% and beats CNC by 10.1%".
//   - Fig. 6: the same with the slower, higher-ratio FPC and SC2. Paper:
//     DISCO's advantage grows with de/compression latency; "DISCO achieves
//     the best performance boost with SC2: 16.7% average latency reduction
//     over CNC and 15.5% over CC".
//   - Fig. 7: memory-subsystem energy (NoC + NUCA L2 + compression
//     hardware) under delta, normalized to the baseline CMP without any
//     compression. Paper: DISCO consumes 73.3% of the baseline on average,
//     ~8.3% below CC and ~9.1% below CNC.
//   - Fig. 8: DISCO vs CC on 2x2 (4 banks), 4x4 (16) and 8x8 (64) meshes.
//     Paper: the DISCO-over-CC gain grows from insignificant at 4 banks to
//     ~22% at 64 banks (deeper networks expose more queuing to hide and
//     more hops to keep compressed).
// Fig. 5 and Fig. 7 read the same delta cells. Fig. 5, 6 and 8 also print
// DISCO with its router engines off (see bench::kEnginesOff).
#include "figures.h"

using namespace disco;
using bench::kBaseline;
using bench::kCC;
using bench::kCNC;
using bench::kDisco;
using bench::kEnginesOff;
using bench::kIdeal;

namespace {

/// Normalized values of one table, one list per column.
using Norms = std::array<std::vector<double>, bench::kColumns>;

double vs_ideal(const bench::RowResults& rs, bench::Column c) {
  return rs[c]->avg_nuca_latency / rs[kIdeal]->avg_nuca_latency;
}

void print_engines_off(const Norms& n) {
  std::printf("engines off: geomean %.3f vs DISCO %.3f\n",
              sim::geomean(n[kEnginesOff]), sim::geomean(n[kDisco]));
}

void print_fig5(const sim::SweepResult& sweep, const bench::FigureGrid& g) {
  std::printf("--- Figure 5: performance with delta-based compression ---\n");
  TablePrinter t({"Workload", "Ideal (cycles)", "CC", "CNC", "DISCO",
                  "CC/Ideal", "CNC/Ideal", "DISCO/Ideal", "engines off/Ideal"});
  Norms n;
  for (const auto& row : g.fig5) {
    const auto rs = bench::row_results(sweep, row);
    if (!rs) continue;
    std::vector<std::string> cols = {row.workload};
    for (const bench::Column c : {kIdeal, kCC, kCNC, kDisco})
      cols.push_back(TablePrinter::fmt((*rs)[c]->avg_nuca_latency, 1));
    for (const bench::Column c : {kCC, kCNC, kDisco, kEnginesOff}) {
      n[c].push_back(vs_ideal(*rs, c));
      cols.push_back(TablePrinter::fmt(n[c].back(), 3));
    }
    t.add_row(std::move(cols));
  }
  t.print(std::cout);
  if (n[kDisco].empty()) return;
  const double cc_g = sim::geomean(n[kCC]);
  const double cnc_g = sim::geomean(n[kCNC]);
  const double disco_g = sim::geomean(n[kDisco]);
  std::printf("\ngeomean normalized latency: CC %.3f  CNC %.3f  DISCO %.3f\n",
              cc_g, cnc_g, disco_g);
  std::printf("DISCO improves on CC by %.1f%% (paper: 12%%), on CNC by %.1f%% "
              "(paper: 10.1%%)\n",
              (cc_g - disco_g) / cc_g * 100.0,
              (cnc_g - disco_g) / cnc_g * 100.0);
  print_engines_off(n);
}

void print_fig6(const sim::SweepResult& sweep, const bench::FigureGrid& g) {
  std::printf("\n--- Figure 6: performance with FPC and SC2 ---\n");
  bool all_rows = true;
  for (std::size_t a = 0; a < g.fig6.size(); ++a) {
    std::printf("--- algorithm: %s ---\n", bench::kFig6Algorithms[a].c_str());
    TablePrinter t({"Workload", "CC/Ideal", "CNC/Ideal", "DISCO/Ideal",
                    "engines off/Ideal"});
    Norms n;
    for (const auto& row : g.fig6[a]) {
      const auto rs = bench::row_results(sweep, row);
      if (!rs) continue;
      std::vector<std::string> cols = {row.workload};
      for (const bench::Column c : {kCC, kCNC, kDisco, kEnginesOff}) {
        n[c].push_back(vs_ideal(*rs, c));
        cols.push_back(TablePrinter::fmt(n[c].back(), 3));
      }
      t.add_row(std::move(cols));
    }
    t.print(std::cout);
    if (n[kDisco].empty()) {
      all_rows = false;
      continue;
    }
    const double cc_g = sim::geomean(n[kCC]);
    const double cnc_g = sim::geomean(n[kCNC]);
    const double d_g = sim::geomean(n[kDisco]);
    std::printf("geomean: CC %.3f  CNC %.3f  DISCO %.3f | DISCO vs CC %.1f%%, "
                "vs CNC %.1f%%\n",
                cc_g, cnc_g, d_g, (cc_g - d_g) / cc_g * 100.0,
                (cnc_g - d_g) / cnc_g * 100.0);
    print_engines_off(n);
    std::printf("\n");
  }
  if (all_rows)
    std::printf("expected shape: DISCO's margin over CC/CNC grows from delta "
                "(Fig 5) to FPC to SC2 as de/compression latency rises.\n");
}

void print_fig7(const sim::SweepResult& sweep, const bench::FigureGrid& g) {
  std::printf("\n--- Figure 7: memory-subsystem energy, delta compression ---\n");
  TablePrinter t({"Workload", "Baseline (uJ)", "CC/Base", "CNC/Base",
                  "DISCO/Base", "DISCO dyn NoC/Base"});
  // Energy for the same amount of work: normalize per core memory op.
  const auto per_op = [](const sim::CellResult& r, double nj) {
    return nj / static_cast<double>(r.core_ops);
  };
  Norms n;
  for (const auto& row : g.fig7) {
    const auto rs = bench::row_results(sweep, row);
    if (!rs) continue;
    const sim::CellResult& base = *(*rs)[kBaseline];
    std::vector<std::string> cols = {
        row.workload, TablePrinter::fmt(base.energy.subsystem_nj() / 1000.0, 1)};
    for (const bench::Column c : {kCC, kCNC, kDisco}) {
      const sim::CellResult& r = *(*rs)[c];
      n[c].push_back(per_op(r, r.energy.subsystem_nj()) /
                     per_op(base, base.energy.subsystem_nj()));
      cols.push_back(TablePrinter::fmt(n[c].back(), 3));
    }
    const sim::CellResult& d = *(*rs)[kDisco];
    cols.push_back(TablePrinter::fmt(per_op(d, d.energy.noc_dynamic_nj) /
                                         per_op(base, base.energy.noc_dynamic_nj),
                                     3));
    t.add_row(std::move(cols));
  }
  t.print(std::cout);
  if (!n[kDisco].empty()) {
    std::printf("\ngeomean energy vs baseline: CC %.3f  CNC %.3f  DISCO %.3f "
                "(paper: DISCO 0.733, ~8-9%% below CC/CNC)\n",
                sim::geomean(n[kCC]), sim::geomean(n[kCNC]),
                sim::geomean(n[kDisco]));
  }
}

void print_fig8(const sim::SweepResult& sweep, const bench::FigureGrid& g) {
  std::printf("\n--- Figure 8: scalability with CMP size ---\n");
  TablePrinter t({"Mesh", "Banks", "CC/Ideal", "DISCO/Ideal",
                  "DISCO gain over CC", "engines off/Ideal"});
  for (std::size_t m = 0; m < g.fig8.size(); ++m) {
    Norms n;
    for (const auto& row : g.fig8[m]) {
      const auto rs = bench::row_results(sweep, row);
      if (!rs) continue;
      for (const bench::Column c : {kCC, kDisco, kEnginesOff})
        n[c].push_back(vs_ideal(*rs, c));
    }
    if (n[kDisco].empty()) continue;
    const std::uint32_t side = bench::kFig8Sides[m];
    const double cc_g = sim::geomean(n[kCC]);
    const double disco_g = sim::geomean(n[kDisco]);
    t.add_row({std::to_string(side) + "x" + std::to_string(side),
               std::to_string(side * side), TablePrinter::fmt(cc_g, 3),
               TablePrinter::fmt(disco_g, 3),
               TablePrinter::pct((cc_g - disco_g) / cc_g),
               TablePrinter::fmt(sim::geomean(n[kEnginesOff]), 3)});
  }
  t.print(std::cout);
  std::printf("\nexpected shape: the DISCO-over-CC gain grows with mesh size "
              "(paper: ~10%% at 16 banks -> ~22%% at 64 banks)\n");
}

}  // namespace

int main(int argc, char** argv) {
  const auto sweep_opt = bench::sweep_options(argc, argv, "figures");
  SystemConfig base;
  base.fault = sweep_opt.fault;
  bench::print_banner("Figures 5-8: NUCA latency, energy and scalability", base);
  std::printf("engines off: DISCO with CCth = CDth = +inf, so no router engine "
              "starts; NI source-queue compression stays on\n\n");

  const bench::FigureGrid grid = bench::figure_grid(base);
  const auto sweep = sim::run_sweep(grid.cells, sweep_opt);
  print_fig5(sweep, grid);
  print_fig6(sweep, grid);
  print_fig7(sweep, grid);
  print_fig8(sweep, grid);
  bench::print_sweep_summary(sweep);
  return bench::exit_code(sweep);
}
