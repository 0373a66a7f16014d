// The seed-paired verdict bench_ablation prints for every row: a side is
// named only when the variant lands on it in at least 9 of 10 seed pairs
// and the medians differ by more than the baseline's IQR. Also the bench
// exit code, which fails a run with an invariant-dirty cell.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../bench/bench_util.h"

namespace disco::bench {
namespace {

// Median 14.5, quartiles 12.25 and 16.75, so the IQR is 4.5.
const std::vector<double> kBase = {10, 11, 12, 13, 14, 15, 16, 17, 18, 19};

std::vector<double> shifted(double by) {
  std::vector<double> v = kBase;
  for (double& x : v) x += by;
  return v;
}

TEST(BenchVerdict, QuartilesInterpolateBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(median(kBase), 14.5);
  EXPECT_DOUBLE_EQ(quantile(kBase, 0.25), 12.25);
  EXPECT_DOUBLE_EQ(iqr(kBase), 4.5);
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);  // order of the seeds is irrelevant
}

TEST(BenchVerdict, TenOfTenPairsAndGapAboveIqrIsLower) {
  const Verdict v = verdict(kBase, shifted(-5));
  EXPECT_EQ(v.lower, 10u);
  EXPECT_EQ(v.higher, 0u);
  EXPECT_DOUBLE_EQ(v.gap, -5.0);
  EXPECT_STREQ(v.text, "lower");
}

TEST(BenchVerdict, NineOfTenPairsAndGapAboveIqrIsHigher) {
  std::vector<double> var = shifted(6);
  var[9] = kBase[9] - 1;  // one pair goes the other way
  const Verdict v = verdict(kBase, var);
  EXPECT_EQ(v.higher, 9u);
  EXPECT_EQ(v.lower, 1u);
  EXPECT_DOUBLE_EQ(v.gap, 5.0);
  EXPECT_STREQ(v.text, "higher");
}

TEST(BenchVerdict, EightOfTenPairsIsWithinSeedSpread) {
  std::vector<double> var = shifted(-6);
  var[8] = kBase[8] + 1;
  var[9] = kBase[9] + 1;
  const Verdict v = verdict(kBase, var);
  EXPECT_EQ(v.lower, 8u);
  EXPECT_LT(v.gap, -4.5) << "the gap alone would pass";
  EXPECT_STREQ(v.text, "within seed spread");
}

TEST(BenchVerdict, GapNoLargerThanIqrIsWithinSeedSpread) {
  for (const double by : {-1.0, -4.5, 1.0, 4.5}) {
    const Verdict v = verdict(kBase, shifted(by));
    EXPECT_EQ(v.lower + v.higher, 10u) << "every pair is decisive";
    EXPECT_STREQ(v.text, "within seed spread") << "shift " << by;
  }
}

TEST(BenchVerdict, AllTiesIsWithinSeedSpread) {
  // Adaptive vs static thresholds at nominal load: identical on every seed.
  const Verdict v = verdict(kBase, kBase);
  EXPECT_EQ(v.lower, 0u);
  EXPECT_EQ(v.higher, 0u);
  EXPECT_DOUBLE_EQ(v.gap, 0.0);
  EXPECT_STREQ(v.text, "within seed spread");
}

// A bench or batch_runner run with --check-invariants must fail when a cell
// finished but its checker recorded a violation, not only when a cell failed.
TEST(BenchExitCode, OneDirtyCellFailsTheRun) {
  sim::SweepResult r;
  r.cells.resize(3);
  for (auto& c : r.cells) {
    c.status = sim::CellStatus::Ok;
    c.result.invariants.enabled = true;
  }
  r.completed = 3;
  EXPECT_EQ(r.dirty(), 0u);
  EXPECT_EQ(exit_code(r), 0);

  r.cells[1].result.invariants.violations = 1;
  EXPECT_EQ(r.dirty(), 1u);
  EXPECT_FALSE(r.all_ok());
  EXPECT_EQ(exit_code(r), 1);
}

}  // namespace
}  // namespace disco::bench
