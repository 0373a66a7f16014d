// Hot-path equivalence suite: the pooled/ring/bitmask tick loop must be
// observationally identical to the seed implementation. Two angles:
//   - the checked-in golden traces still reproduce byte for byte, and every
//     scenario returns the packet pool to its starting live count,
//   - sweep JSON is byte-identical at --threads 1 and --threads 4 on a grid
//     that exercises compression, faults and retransmissions.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "noc/packet_pool.h"
#include "sim/experiment.h"
#include "sim/golden.h"
#include "sim/json_export.h"
#include "sim/sweep.h"
#include "workload/profile.h"

namespace disco {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

// The three golden workloads the scenario library draws from.
const char* const kGoldenProfiles[] = {"canneal", "dedup", "swaptions"};

TEST(HotPathEquivalence, GoldenScenariosReproduceSeedBytesAndDrainThePool) {
  const std::size_t base = noc::packet_pool().live();
  for (const auto& sc : sim::golden_scenarios()) {
    const std::string expect =
        read_file(std::string(DISCO_TEST_DATA_DIR) + "/golden/" +
                  std::string(sc.name) + ".trace");
    ASSERT_FALSE(expect.empty()) << "missing golden file for " << sc.name;
    const sim::GoldenRun run = sc.run();
    EXPECT_EQ(run.trace, expect)
        << "hot-path rework changed the " << sc.name << " trace";
    // Every packet the scenario allocated must be back on the freelist:
    // a leak here means a refcount cycle or a buffer that never drained.
    EXPECT_EQ(noc::packet_pool().live(), base)
        << "scenario " << sc.name << " leaked pooled packets";
  }
}

TEST(HotPathEquivalence, SweepJsonIsThreadCountInvariantUnderFaults) {
  // A grid that drives every hot-path structure at once: DISCO in-network
  // compression (engine shadows, losers reporting), soft faults (NACK and
  // retransmit traffic through the pool), and plain CC as control.
  sim::RunOptions ropt;
  ropt.warmup_ops_per_core = 2000;
  ropt.warmup_cycles = 2000;
  ropt.measure_cycles = 6000;
  std::vector<sim::SweepCell> cells;
  std::size_t group = 0;
  for (const char* name : kGoldenProfiles) {
    const auto& profile = workload::profile_by_name(name);
    for (const Scheme s : {Scheme::CC, Scheme::DISCO}) {
      SystemConfig cfg;
      cfg.scheme = s;
      cfg.fault.enabled = true;
      cfg.fault.link_bit_flip_rate = 2e-4;
      cfg.fault.flit_drop_rate = 1e-4;
      sim::SweepCell c{cfg, profile, ropt};
      c.group = group;
      cells.push_back(std::move(c));
    }
    ++group;
  }

  sim::SweepOptions serial;
  serial.threads = 1;
  serial.progress = false;
  sim::SweepOptions parallel = serial;
  parallel.threads = 4;

  const sim::SweepResult a = sim::run_sweep(cells, serial);
  const sim::SweepResult b = sim::run_sweep(cells, parallel);
  ASSERT_EQ(a.completed, cells.size());
  ASSERT_EQ(b.completed, cells.size());
  std::ostringstream ja, jb;
  sim::write_json(ja, a.ok_results());
  sim::write_json(jb, b.ok_results());
  EXPECT_EQ(ja.str(), jb.str())
      << "sweep JSON must not depend on the thread count";
}

}  // namespace
}  // namespace disco
