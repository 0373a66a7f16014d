// The Fig. 5-8 grid of bench_figures (bench/figures.h): every cell a figure
// reads has the scheme, algorithm, mesh, L2 sizing, run options and seed
// group that figure specifies, so the printed numbers match EXPERIMENTS.md.
// Fig. 5 and Fig. 7 share their CC, CNC and DISCO cells, and no two cells of
// the grid run the same simulation.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "../bench/figures.h"

namespace disco::bench {
namespace {

/// What one figure needs of one cell.
struct Want {
  Scheme scheme;
  std::string algorithm;
  std::uint32_t side;
  std::uint64_t l2_bytes;
  std::uint32_t controllers;
  std::string workload;
  Cycle measure_cycles;
  std::size_t seed_group;
};

void expect_cell(const sim::SweepCell& c, const Want& w, bool engines_off) {
  const sim::RunOptions std_opt = standard_options();
  EXPECT_EQ(c.cfg.scheme, w.scheme);
  EXPECT_EQ(c.cfg.algorithm, w.algorithm);
  EXPECT_EQ(c.cfg.noc.mesh_cols, w.side);
  EXPECT_EQ(c.cfg.noc.mesh_rows, w.side);
  EXPECT_EQ(c.cfg.l2.total_size_bytes, w.l2_bytes);
  EXPECT_EQ(c.cfg.mem.num_controllers, w.controllers);
  EXPECT_EQ(c.profile.name, w.workload);
  EXPECT_EQ(c.opt.warmup_ops_per_core, std_opt.warmup_ops_per_core);
  EXPECT_EQ(c.opt.warmup_cycles, std_opt.warmup_cycles);
  EXPECT_EQ(c.opt.measure_cycles, w.measure_cycles);
  EXPECT_EQ(c.seed_group, w.seed_group);
  const DiscoConfig defaults;
  if (engines_off) {
    EXPECT_TRUE(std::isinf(c.cfg.disco.cc_threshold) &&
                c.cfg.disco.cc_threshold > 0);
    EXPECT_TRUE(std::isinf(c.cfg.disco.cd_threshold) &&
                c.cfg.disco.cd_threshold > 0);
  } else {
    EXPECT_EQ(c.cfg.disco.cc_threshold, defaults.cc_threshold);
    EXPECT_EQ(c.cfg.disco.cd_threshold, defaults.cd_threshold);
  }
}

using Columns = std::vector<std::pair<Column, Scheme>>;
// The schemes each figure compares, plus its engines-off column.
const Columns kFig5 = {{kIdeal, Scheme::Ideal},
                       {kCC, Scheme::CC},
                       {kCNC, Scheme::CNC},
                       {kDisco, Scheme::DISCO},
                       {kEnginesOff, Scheme::DISCO}};
const Columns kFig7 = {{kBaseline, Scheme::Baseline},
                       {kCC, Scheme::CC},
                       {kCNC, Scheme::CNC},
                       {kDisco, Scheme::DISCO}};
const Columns kFig8 = {{kIdeal, Scheme::Ideal},
                       {kCC, Scheme::CC},
                       {kDisco, Scheme::DISCO},
                       {kEnginesOff, Scheme::DISCO}};

class FigureGridTest : public ::testing::Test {
 protected:
  /// Checks `row`'s cell of column `col` against `w` and records it.
  void check(const FigureRow& row, Column col, Want w) {
    const std::size_t i = row.cell[col];
    ASSERT_LT(i, grid_.cells.size());
    SCOPED_TRACE("cell " + std::to_string(i) + " " + w.workload);
    expect_cell(grid_.cells[i], w, col == kEnginesOff);
    (col == kEnginesOff ? engines_off_ : read_).insert(i);
  }

  const SystemConfig defaults_;
  const FigureGrid grid_ = figure_grid(defaults_);
  std::set<std::size_t> read_, engines_off_;
};

TEST_F(FigureGridTest, EveryCellMatchesItsFigure) {
  const auto& profiles = workloads();
  const std::uint64_t l2 = defaults_.l2.total_size_bytes;
  const std::uint32_t side = defaults_.noc.mesh_cols;
  const std::uint32_t mcs = defaults_.mem.num_controllers;
  const Cycle measure = standard_options().measure_cycles;
  ASSERT_EQ(grid_.fig5.size(), profiles.size());
  ASSERT_EQ(grid_.fig7.size(), profiles.size());
  for (std::size_t w = 0; w < profiles.size(); ++w) {
    const std::string& name = profiles[w].name;
    for (const auto& [c, s] : kFig5)
      check(grid_.fig5[w], c, {s, "delta", side, l2, mcs, name, measure, w});
    for (const auto& [c, s] : kFig7)
      check(grid_.fig7[w], c, {s, "delta", side, l2, mcs, name, measure, w});
  }

  ASSERT_EQ(grid_.fig6.size(), kFig6Algorithms.size());
  for (std::size_t a = 0; a < kFig6Algorithms.size(); ++a) {
    ASSERT_EQ(grid_.fig6[a].size(), profiles.size());
    for (std::size_t w = 0; w < profiles.size(); ++w)
      for (const auto& [c, s] : kFig5)
        check(grid_.fig6[a][w], c,
              {s, kFig6Algorithms[a], side, l2, mcs, profiles[w].name,
               measure, a * profiles.size() + w});
  }

  ASSERT_EQ(grid_.fig8.size(), kFig8Sides.size());
  for (std::size_t m = 0; m < kFig8Sides.size(); ++m) {
    const std::uint32_t n = kFig8Sides[m];
    ASSERT_EQ(grid_.fig8[m].size(), kFig8Workloads.size());
    for (std::size_t w = 0; w < kFig8Workloads.size(); ++w)
      for (const auto& [c, s] : kFig8)
        check(grid_.fig8[m][w], c,
              {s, "delta", n, 256ULL * 1024 * n * n, n >= 8 ? 4u : 1u,
               kFig8Workloads[w], 60000, m * kFig8Workloads.size() + w});
  }

  // Fig. 5, 6, 7 and 8 read 52, 104, 52 and 36 cells besides engines off;
  // the 39 CC/CNC/DISCO cells of Fig. 7 are Fig. 5's.
  EXPECT_EQ(read_.size(), 205u);
  EXPECT_EQ(engines_off_.size(), 51u);
  EXPECT_EQ(grid_.cells.size(), read_.size() + engines_off_.size())
      << "every cell is read by a figure";
}

TEST_F(FigureGridTest, Fig5AndFig7ReadTheSameDeltaCells) {
  for (std::size_t w = 0; w < grid_.fig5.size(); ++w)
    for (const Column c : {kCC, kCNC, kDisco})
      EXPECT_EQ(grid_.fig5[w].cell[c], grid_.fig7[w].cell[c])
          << grid_.fig5[w].workload;
}

TEST_F(FigureGridTest, NoTwoCellsRunTheSameSimulation) {
  std::set<std::tuple<int, std::string, std::uint32_t, std::uint32_t,
                      std::uint64_t, std::uint32_t, double, double, std::string,
                      std::uint64_t, Cycle, Cycle, std::size_t>>
      seen;
  for (const auto& c : grid_.cells)
    seen.emplace(static_cast<int>(c.cfg.scheme), c.cfg.algorithm,
                 c.cfg.noc.mesh_cols, c.cfg.noc.mesh_rows,
                 c.cfg.l2.total_size_bytes, c.cfg.mem.num_controllers,
                 c.cfg.disco.cc_threshold, c.cfg.disco.cd_threshold,
                 c.profile.name, c.opt.warmup_ops_per_core,
                 c.opt.warmup_cycles, c.opt.measure_cycles, c.seed_group);
  EXPECT_EQ(seen.size(), grid_.cells.size());
}

TEST_F(FigureGridTest, EachRowIsOneShardGroup) {
  std::vector<const FigureRow*> rows;
  for (const auto* fig : {&grid_.fig5, &grid_.fig7})
    for (const auto& r : *fig) rows.push_back(&r);
  for (const auto& block : grid_.fig6)
    for (const auto& r : block) rows.push_back(&r);
  for (const auto& block : grid_.fig8)
    for (const auto& r : block) rows.push_back(&r);
  for (const FigureRow* r : rows) {
    std::set<std::size_t> groups;
    for (const std::size_t i : r->cell)
      if (i != FigureRow::kNoCell) groups.insert(grid_.cells[i].group);
    ASSERT_EQ(groups.size(), 1u) << r->workload;
  }
  std::set<std::size_t> all;
  for (const auto& c : grid_.cells) all.insert(c.group);
  EXPECT_EQ(all.size(), 13u + 26u + 12u)
      << "one group per row; Fig. 7's rows are Fig. 5's";
}

}  // namespace
}  // namespace disco::bench
