// Ablations of DISCO's knobs, each against the paper-default baseline:
//   - section 3.2: confidence thresholds CCth/CDth and beta (the paper's
//     "trained empirically" step), canneal at 3x its op rate;
//   - section 3.3A: separate-flit vs whole-packet compression at 3x;
//   - section 3.3B: the low-priority rule for compressible packets at 3x;
//   - extension: adaptive vs static thresholds (the paper's deferred
//     "on-line threshold calculation") at 1x-4x.
// Every row runs kSeeds seeds; seed k is seed_group k, so a row and its
// baseline replay identical traffic at each seed. A baseline that several
// blocks share (the paper default at the same workload and load) runs once
// and each block prints it. The tables print medians over the seeds, and
// the verdict on NUCA latency comes from bench::verdict.
#include "bench_util.h"

using namespace disco;

namespace {

constexpr std::size_t kSeeds = 10;

struct Row {
  std::size_t ablation;  ///< index into kTitles
  std::string workload;
  double load;  ///< multiple of the workload's nominal op rate
  std::string variant;
  SystemConfig cfg;
  std::size_t baseline;  ///< row this one is compared with (itself: baseline)
  /// Row whose cells hold this row's results: itself, unless it is a
  /// baseline an earlier block already runs.
  std::size_t source;
};

const char* const kTitles[] = {
    "Section 3.2: confidence thresholds (Eq.1/Eq.2)",
    "Section 3.3A: separate-flit compression",
    "Section 3.3B: low priority for compressible packets",
    "Extension: adaptive confidence thresholds",
};

std::string threshold(double t) {
  if (t < -1) return "-inf";
  if (t > 1e9) return "+inf";
  return TablePrinter::fmt(t, 1);
}

/// `member` of each of a row's results, one value per seed.
template <class M>
std::vector<double> per_seed(const std::vector<const sim::CellResult*>& rs,
                             M member) {
  std::vector<double> v;
  for (const sim::CellResult* r : rs) v.push_back(static_cast<double>(r->*member));
  return v;
}

std::vector<Row> make_rows(const SystemConfig& base) {
  std::vector<Row> rows;
  // Adds a baseline (the paper default, `base`) and one row per variant.
  // The baseline reuses the cells of an earlier block's baseline at the
  // same workload and load.
  const auto add_block = [&](std::size_t ablation, const std::string& workload,
                             double load, const std::string& baseline_label,
                             const std::vector<std::pair<std::string,
                                                         SystemConfig>>& vars) {
    const std::size_t b = rows.size();
    std::size_t source = b;
    for (std::size_t i = 0; i < b && source == b; ++i)
      if (rows[i].baseline == i && rows[i].source == i &&
          rows[i].workload == workload && rows[i].load == load)
        source = i;
    rows.push_back({ablation, workload, load, baseline_label, base, b, source});
    for (const auto& [label, cfg] : vars)
      rows.push_back({ablation, workload, load, label, cfg, b, rows.size()});
  };

  struct Point {
    double ccth, cdth, beta;
  };
  const std::vector<Point> points = {
      {-100, -100, 0},  // hair-trigger: compress/decompress on any stall
      {0.5, 0.5, 1},    {1, 1, 1},       {2, 2, 1},
      {4, 4, 1},        {1, 1, 2},       {1, 1, 4},
      {8, 8, 2},        {1e18, 1e18, 1},  // engines disabled
  };
  const auto point_label = [](double cc, double cd, double beta) {
    return "CCth " + threshold(cc) + ", CDth " + threshold(cd) + ", beta " +
           TablePrinter::fmt(beta, 1);
  };
  std::vector<std::pair<std::string, SystemConfig>> vars;
  for (const Point& p : points) {
    SystemConfig c = base;
    c.disco.cc_threshold = p.ccth;
    c.disco.cd_threshold = p.cdth;
    c.disco.beta = p.beta;
    vars.emplace_back(point_label(p.ccth, p.cdth, p.beta), c);
  }
  add_block(0, "canneal", 3.0,
            point_label(base.disco.cc_threshold, base.disco.cd_threshold,
                        base.disco.beta),
            vars);

  for (const char* w : {"canneal", "dedup", "streamcluster", "x264"}) {
    SystemConfig c = base;
    c.disco.separate_flit_compression = false;
    add_block(1, w, 3.0, "separate-flit", {{"whole-packet", c}});
  }
  for (const char* w : {"canneal", "dedup", "streamcluster", "x264",
                        "swaptions", "vips"}) {
    SystemConfig c = base;
    c.noc.deprioritize_compressible = false;
    add_block(2, w, 3.0, "rule on", {{"rule off", c}});
  }
  for (const double load : {1.0, 2.0, 3.0, 4.0}) {
    SystemConfig c = base;
    c.disco.adaptive_thresholds = true;
    add_block(3, "canneal", load, "static", {{"adaptive", c}});
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  const auto sweep_opt = bench::sweep_options(argc, argv, "ablation");
  SystemConfig base;
  base.algorithm = "delta";
  base.scheme = Scheme::DISCO;
  bench::print_banner("Ablations: DISCO knobs vs the paper defaults", base);

  auto opt = bench::standard_options();
  opt.measure_cycles = 60000;

  // Each row that runs its own cells gets kSeeds of them from first_cell[r]
  // on, cell first_cell[r] + k at seed k. Shard groups are numbered densely
  // by the baselines that run cells, and a row shares the group of its
  // baseline's cells, so --shard never splits the seeds of a comparison nor
  // a row from its baseline.
  const std::vector<Row> rows = make_rows(base);
  std::vector<sim::SweepCell> cells;
  std::vector<std::size_t> first_cell(rows.size());
  std::vector<std::size_t> group(rows.size());
  std::size_t groups = 0;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const Row& row = rows[r];
    if (row.source != r) continue;
    if (row.baseline == r) group[r] = groups++;
    first_cell[r] = cells.size();
    workload::BenchmarkProfile profile =
        workload::profile_by_name(row.workload);
    profile.mem_op_rate *= row.load;
    for (std::size_t k = 0; k < kSeeds; ++k) {
      sim::SweepCell c{row.cfg, profile, opt};
      c.group = group[rows[row.baseline].source];
      c.seed_group = k;
      cells.push_back(std::move(c));
    }
  }
  const auto sweep = sim::run_sweep(cells, sweep_opt);

  std::printf("%zu seeds per row (base seed %llu, seed groups 0-%zu), "
              "medians over seeds. verdict: the row's NUCA latency vs its "
              "baseline, seed by seed.\n",
              kSeeds, static_cast<unsigned long long>(sweep_opt.base_seed),
              kSeeds - 1);
  const auto results = [&](std::size_t r) {
    return bench::grid_row(sweep, first_cell[rows[r].source], kSeeds);
  };
  using R = sim::CellResult;
  for (std::size_t a = 0; a < std::size(kTitles); ++a) {
    std::printf("\n--- %s ---\n", kTitles[a]);
    TablePrinter t({"workload", "load", "variant", "NUCA lat", "IQR",
                    "router comp", "router decomp", "hidden", "aborts (c+d)",
                    "abort rate", "pairs lower/higher", "median gap",
                    "verdict"});
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const Row& row = rows[r];
      const auto rs = results(r);
      if (row.ablation != a || rs.empty()) continue;
      const auto med = [&](auto member) {
        return TablePrinter::fmt(bench::median(per_seed(rs, member)), 1);
      };
      const std::vector<double> lat = per_seed(rs, &R::avg_nuca_latency);
      std::vector<double> rates;
      for (const R* c : rs) {
        const std::uint64_t aborts =
            c->compression_aborts + c->decompression_aborts;
        const std::uint64_t ops =
            c->inflight_compressions + c->inflight_decompressions + aborts;
        if (ops > 0)
          rates.push_back(static_cast<double>(aborts) /
                          static_cast<double>(ops));
      }
      std::vector<std::string> cols = {
          row.workload, TablePrinter::fmt(row.load, 1), row.variant,
          TablePrinter::fmt(bench::median(lat), 2),
          TablePrinter::fmt(bench::iqr(lat), 2),
          med(&R::inflight_compressions), med(&R::inflight_decompressions),
          med(&R::hidden_decomp_ops),
          med(&R::compression_aborts) + "+" + med(&R::decompression_aborts),
          rates.empty() ? "-" : TablePrinter::pct(bench::median(rates))};
      const auto base_rs = results(row.baseline);
      if (row.baseline == r || base_rs.empty()) {
        // The baseline itself, or a baseline with a failed cell. A row and
        // its baseline share a shard group, so sharding never splits them.
        cols.insert(cols.end(),
                    {"-", "-", row.baseline == r ? "baseline" : "-"});
      } else {
        const bench::Verdict v =
            bench::verdict(per_seed(base_rs, &R::avg_nuca_latency), lat);
        cols.insert(cols.end(),
                    {std::to_string(v.lower) + "/" + std::to_string(v.higher),
                     TablePrinter::fmt(v.gap, 2), v.text});
      }
      t.add_row(std::move(cols));
    }
    t.print(std::cout);
  }
  bench::print_sweep_summary(sweep);
  return bench::exit_code(sweep);
}
