// Golden-trace regression tests: every scenario in the golden library must
// reproduce its checked-in canonical trace byte-for-byte (ignoring blank
// and '#' comment lines). A mismatch means router arbitration, credit
// flow, DISCO scheduling or cache fill order changed; if the change is
// intentional, regenerate with
//   ./tools/trace_record --all --out <repo>/tests/golden
// and review the diff.
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/golden.h"

namespace disco::sim {

// Print a scenario by name, so the test name shown by `--gtest_list_tests`
// and ctest is stable instead of a byte dump of the struct's pointers.
void PrintTo(const GoldenScenario& scenario, std::ostream* os) {
  *os << scenario.name;
}

}  // namespace disco::sim

namespace disco {
namespace {

std::vector<std::string> event_lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    out.push_back(line);
  }
  return out;
}

std::string golden_path(const std::string& name) {
  return std::string(DISCO_TEST_DATA_DIR) + "/golden/" + name + ".trace";
}

class GoldenTrace : public ::testing::TestWithParam<sim::GoldenScenario> {};

TEST_P(GoldenTrace, MatchesCheckedInReference) {
  const auto& scenario = GetParam();
  std::ifstream is(golden_path(scenario.name));
  ASSERT_TRUE(is) << "missing golden file for " << scenario.name
                  << " — regenerate with tools/trace_record";
  std::ostringstream buf;
  buf << is.rdbuf();
  const auto expect = event_lines(buf.str());
  ASSERT_FALSE(expect.empty()) << "empty golden file for " << scenario.name;

  const auto run = scenario.run();
  ASSERT_TRUE(run.invariants.clean())
      << scenario.name << ": " << run.invariants.first_violation;
  const auto actual = event_lines(run.trace);

  ASSERT_EQ(actual.size(), expect.size())
      << scenario.name << ": event count changed";
  for (std::size_t i = 0; i < expect.size(); ++i) {
    ASSERT_EQ(actual[i], expect[i])
        << scenario.name << ": first divergence at event " << i + 1;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, GoldenTrace, ::testing::ValuesIn(sim::golden_scenarios()),
    [](const ::testing::TestParamInfo<sim::GoldenScenario>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace disco
