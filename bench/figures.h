// The one cell grid behind Fig. 5-8 (bench_figures): every distinct
// (config, workload, run options, seed) cell the four figures read, built
// once so each runs once. Fig. 5 and Fig. 7 read the same delta cells.
// Each figure addresses its cells through rows, so a test can check the
// grid against what each figure needs.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"

namespace disco::bench {

/// A figure table's columns: the five schemes, plus DISCO with both
/// confidence thresholds at +inf, so that no router engine ever starts.
/// The NI source-queue compression of the DISCO scheme stays on there.
enum Column : std::size_t {
  kIdeal,
  kBaseline,
  kCC,
  kCNC,
  kDisco,
  kEnginesOff,
  kColumns
};

inline constexpr std::array<Scheme, kColumns> kSchemeOf = {
    Scheme::Ideal, Scheme::Baseline, Scheme::CC,
    Scheme::CNC,   Scheme::DISCO,    Scheme::DISCO};

/// One normalization row: the cell of each column it reads, kNoCell for the
/// columns it does not read. A row's cells share one shard group (--shard
/// never splits a row) and one seed group (they replay the same traffic).
struct FigureRow {
  static constexpr std::size_t kNoCell = static_cast<std::size_t>(-1);
  std::string workload;
  std::array<std::size_t, kColumns> cell;

  /// This row, reading only `cols`.
  FigureRow only(std::initializer_list<Column> cols) const {
    FigureRow r{workload, {}};
    r.cell.fill(kNoCell);
    for (const Column c : cols) r.cell[c] = cell[c];
    return r;
  }
};

using RowResults = std::array<const sim::CellResult*, kColumns>;

/// The results of the columns `row` reads, or nullopt when one of them
/// failed or fell outside this shard (the bench then skips the row instead
/// of printing a half-normalized one).
inline std::optional<RowResults> row_results(const sim::SweepResult& r,
                                             const FigureRow& row) {
  RowResults rs{};
  for (std::size_t c = 0; c < kColumns; ++c) {
    if (row.cell[c] == FigureRow::kNoCell) continue;
    rs[c] = r.ok(row.cell[c]);
    if (rs[c] == nullptr) return std::nullopt;
  }
  return rs;
}

inline const std::vector<std::string> kFig6Algorithms = {"fpc", "sc2"};
inline const std::vector<std::uint32_t> kFig8Sides = {2, 4, 8};
/// A representative subset keeps the 64-router runs affordable.
inline const std::vector<std::string> kFig8Workloads = {
    "canneal", "dedup", "streamcluster", "x264"};

struct FigureGrid {
  std::vector<sim::SweepCell> cells;
  /// One row per workload; Fig. 7's rows read Fig. 5's CC, CNC and DISCO
  /// cells.
  std::vector<FigureRow> fig5, fig7;
  /// Per kFig6Algorithms entry, one row per workload.
  std::vector<std::vector<FigureRow>> fig6;
  /// Per kFig8Sides entry, one row per kFig8Workloads entry.
  std::vector<std::vector<FigureRow>> fig8;
};

/// The Fig. 5-8 grid on `base`. Seed groups: the delta rows and the FPC
/// rows take workload w's index, the SC2 rows 13 more, and the Fig. 8 rows
/// count (mesh, workload) pairs from 0. Shard groups count rows densely.
inline FigureGrid figure_grid(const SystemConfig& base) {
  FigureGrid g;
  std::size_t group = 0;
  const auto add_row = [&](const SystemConfig& cfg,
                           const workload::BenchmarkProfile& profile,
                           const sim::RunOptions& opt, std::size_t seed_group,
                           std::initializer_list<Column> cols) {
    FigureRow row{profile.name, {}};
    row.cell.fill(FigureRow::kNoCell);
    for (const Column c : cols) {
      sim::SweepCell cell{cfg, profile, opt};
      cell.cfg.scheme = kSchemeOf[c];
      if (c == kEnginesOff)
        cell.cfg.disco.cc_threshold = cell.cfg.disco.cd_threshold =
            std::numeric_limits<double>::infinity();
      cell.group = group;
      cell.seed_group = seed_group;
      row.cell[c] = g.cells.size();
      g.cells.push_back(std::move(cell));
    }
    ++group;
    return row;
  };

  const sim::RunOptions opt = standard_options();
  const auto& profiles = workloads();
  SystemConfig delta = base;
  delta.algorithm = "delta";
  for (std::size_t w = 0; w < profiles.size(); ++w) {
    const FigureRow row = add_row(delta, profiles[w], opt, w,
                                  {kIdeal, kBaseline, kCC, kCNC, kDisco,
                                   kEnginesOff});
    g.fig5.push_back(row.only({kIdeal, kCC, kCNC, kDisco, kEnginesOff}));
    g.fig7.push_back(row.only({kBaseline, kCC, kCNC, kDisco}));
  }

  for (std::size_t a = 0; a < kFig6Algorithms.size(); ++a) {
    SystemConfig cfg = base;
    cfg.algorithm = kFig6Algorithms[a];
    auto& rows = g.fig6.emplace_back();
    for (std::size_t w = 0; w < profiles.size(); ++w)
      rows.push_back(add_row(cfg, profiles[w], opt, a * profiles.size() + w,
                             {kIdeal, kCC, kCNC, kDisco, kEnginesOff}));
  }

  sim::RunOptions scale_opt = opt;
  scale_opt.measure_cycles = 60000;
  for (std::size_t m = 0; m < kFig8Sides.size(); ++m) {
    const std::uint32_t side = kFig8Sides[m];
    SystemConfig cfg = delta;
    cfg.noc.mesh_cols = side;
    cfg.noc.mesh_rows = side;
    // The NUCA scales with the tile count (256KB per bank, as in 4MB/16).
    cfg.l2.total_size_bytes = 256ULL * 1024 * side * side;
    cfg.mem.num_controllers = side >= 8 ? 4 : 1;
    auto& rows = g.fig8.emplace_back();
    for (std::size_t w = 0; w < kFig8Workloads.size(); ++w)
      rows.push_back(add_row(cfg, workload::profile_by_name(kFig8Workloads[w]),
                             scale_opt, m * kFig8Workloads.size() + w,
                             {kIdeal, kCC, kDisco, kEnginesOff}));
  }
  return g;
}

}  // namespace disco::bench
