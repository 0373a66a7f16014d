// JSON export tests.
#include <gtest/gtest.h>

#include <sstream>

#include "sim/json_export.h"

namespace disco::sim {
namespace {

CellResult sample_result() {
  CellResult r;
  r.workload = "canneal";
  r.algorithm = "delta";
  r.scheme = Scheme::DISCO;
  r.measured_cycles = 1000;
  r.core_ops = 1234;
  r.avg_nuca_latency = 41.5;
  r.energy.noc_dynamic_nj = 10.0;
  r.energy.l2_dynamic_nj = 5.0;
  return r;
}

TEST(JsonExport, SingleObjectHasKeyFields) {
  std::stringstream ss;
  write_json(ss, sample_result());
  const std::string out = ss.str();
  EXPECT_NE(out.find("\"workload\":\"canneal\""), std::string::npos);
  EXPECT_NE(out.find("\"scheme\":\"DISCO\""), std::string::npos);
  EXPECT_NE(out.find("\"avg_nuca_latency\":41.5"), std::string::npos);
  EXPECT_NE(out.find("\"subsystem_nj\":15"), std::string::npos);
}

TEST(JsonExport, ArrayBracketsAndCommas) {
  std::stringstream ss;
  write_json(ss, std::vector<CellResult>{sample_result(), sample_result()});
  const std::string out = ss.str();
  EXPECT_EQ(out.front(), '[');
  EXPECT_NE(out.find("},\n"), std::string::npos);
  EXPECT_NE(out.find("]\n"), std::string::npos);
}

}  // namespace
}  // namespace disco::sim
