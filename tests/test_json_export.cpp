// JSON export tests.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "sim/json_export.h"
#include "sim/wire.h"

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

TEST(JsonExport, DoublesPrintInTheShortestFormThatRoundTrips) {
  CellResult r = sample_result();
  r.avg_nuca_latency = 0.1 + 0.2;
  r.nuca_latency.add(1013931.5);
  r.l2_miss_rate = -0.0;
  std::stringstream ss;
  write_json(ss, r);
  const std::string out = ss.str();
  EXPECT_NE(out.find("\"avg_nuca_latency\":0.30000000000000004"),
            std::string::npos) << out;
  EXPECT_NE(out.find("\"sum\":1013931.5"), std::string::npos) << out;
  EXPECT_NE(out.find("\"l2_miss_rate\":-0,"), std::string::npos) << out;

  const CellResult d = wire::decode_result(wire::parse_object(wire::encode_result(r)));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(d.l2_miss_rate),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_EQ(d.avg_nuca_latency, 0.1 + 0.2);
  EXPECT_EQ(d.nuca_latency.sum(), 1013931.5);
}

TEST(JsonExport, NonFiniteDoubleIsRejected) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    CellResult r = sample_result();
    r.avg_packet_latency = bad;
    std::stringstream ss;
    EXPECT_THROW(write_json(ss, r), std::invalid_argument);
    EXPECT_THROW(wire::encode_result(r), std::invalid_argument);
  }
}

}  // namespace
}  // namespace disco::sim
