// Crash-resilient sweep supervisor: process isolation survives SIGSEGV,
// hang watchdog + SIGTERM/SIGKILL escalation, one attempt per cell,
// manifest resume byte-identity, in-sim deadlock/livelock/starvation
// classification, the SIGINT flush-and-resume path, and the sweep flag
// parser. The deterministic debug fault hooks (--debug-crash-cell & co.)
// stand in for real crashes and hangs.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>

#include "cmp/system.h"
#include "common/interrupt.h"
#include "fault/fault.h"
#include "field_recorder.h"
#include "sim/json_export.h"
#include "sim/supervisor.h"
#include "sim/sweep.h"
#include "sim/wire.h"
#include "workload/profile.h"

namespace disco::sim {
namespace {

RunOptions tiny_run() {
  RunOptions opt;
  opt.warmup_ops_per_core = 2000;
  opt.warmup_cycles = 2000;
  opt.measure_cycles = 8000;
  return opt;
}

std::vector<SweepCell> small_grid() {
  const RunOptions opt = tiny_run();
  std::vector<SweepCell> cells;
  std::size_t group = 0;
  for (const char* name : {"canneal", "swaptions"}) {
    const auto& profile = workload::profile_by_name(name);
    for (const Scheme s : {Scheme::CC, Scheme::DISCO}) {
      SystemConfig cfg;
      cfg.scheme = s;
      SweepCell c{cfg, profile, opt};
      c.group = group;
      cells.push_back(std::move(c));
    }
    ++group;
  }
  return cells;
}

std::string as_json(const SweepResult& r) {
  std::ostringstream os;
  write_json(os, r.ok_results());
  return os.str();
}

SweepOptions quiet(unsigned threads) {
  SweepOptions opt;
  opt.threads = threads;
  opt.progress = false;
  return opt;
}

/// Unique scratch dir per test, removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(std::filesystem::temp_directory_path() /
              ("disco-supervisor-" + tag + "-" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }
  std::string manifest() const { return (path_ / "manifest.jsonl").string(); }
  bool has(const std::string& name) const {
    return std::filesystem::exists(path_ / name);
  }

 private:
  std::filesystem::path path_;
};

/// RAII guard: some tests raise the process interrupt flag; it must never
/// leak into later tests.
struct InterruptFlagGuard {
  ~InterruptFlagGuard() { interrupt_flag().store(false); }
};

// ---------------------------------------------------------------------------
// Stall classification + wire format (pure units)
// ---------------------------------------------------------------------------

TEST(StallClassification, ActivityWithoutRetirementIsLivelock) {
  EXPECT_EQ(cmp::classify_stall(true, 12, 0), cmp::StallKind::Livelock);
  EXPECT_EQ(cmp::classify_stall(true, 0, 5), cmp::StallKind::Livelock);
}

TEST(StallClassification, StuckInflightFlitsAreDeadlock) {
  EXPECT_EQ(cmp::classify_stall(false, 7, 0), cmp::StallKind::Deadlock);
  EXPECT_EQ(cmp::classify_stall(false, 1, 3), cmp::StallKind::Deadlock);
}

TEST(StallClassification, EmptyNetworkWithStarvedSourcesIsStarvation) {
  EXPECT_EQ(cmp::classify_stall(false, 0, 4), cmp::StallKind::Starvation);
  EXPECT_EQ(cmp::classify_stall(false, 0, 0), cmp::StallKind::Starvation);
}

TEST(WireFormat, RoundTripIsBitExact) {
  CellResult r;
  r.workload = "w\"ith \\escapes\nand\tcontrol\x01";
  r.algorithm = "delta";
  r.scheme = Scheme::CNC;
  r.measured_cycles = 123456789;
  r.l1_misses = ~0ULL;
  r.avg_nuca_latency = 0.1 + 0.2;  // a value with no exact decimal rendering
  r.avg_stored_ratio = 1.0 / 3.0;
  r.l2_miss_rate = -0.0;
  r.energy.dram_nj = 6.02214076e23;
  r.fault.enabled = true;
  r.crc_checks = 42;
  r.invariants.enabled = true;
  r.invariants.first_violation = "cycle 7: credit pool underflow";
  r.trace_text = "line1\nline2\n";

  const std::string encoded = wire::encode_result(r);
  const CellResult d = wire::decode_result(wire::parse_object(encoded));
  EXPECT_EQ(d.workload, r.workload);
  EXPECT_EQ(d.scheme, r.scheme);
  EXPECT_EQ(d.l1_misses, r.l1_misses);
  // Bit patterns, not value comparison: distinguishes -0.0 from 0.0.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(d.avg_nuca_latency),
            std::bit_cast<std::uint64_t>(r.avg_nuca_latency));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(d.l2_miss_rate),
            std::bit_cast<std::uint64_t>(r.l2_miss_rate));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(d.energy.dram_nj),
            std::bit_cast<std::uint64_t>(r.energy.dram_nj));
  EXPECT_TRUE(d.fault.enabled);
  EXPECT_EQ(d.crc_checks, 42u);
  EXPECT_EQ(d.invariants.first_violation, r.invariants.first_violation);
  EXPECT_EQ(d.trace_text, r.trace_text);
  // Re-encoding the decoded result reproduces the exact bytes.
  EXPECT_EQ(wire::encode_result(d), encoded);
}

using testutil::FieldRecorder;

/// Gives every field of a result a distinct non-default value and sets
/// every gate (fault, hard fault, invariants).
struct FieldFiller {
  std::uint64_t next = 1;

  void operator()(const char*, std::string& v) { v = "s" + std::to_string(next++); }
  void operator()(const char*, std::uint64_t& v) { v = next++; }
  void operator()(const char*, double& v) { v = static_cast<double>(next++) / 3.0; }
  void operator()(const char*, Scheme& v) { v = Scheme::DISCO; }
  template <class T>
    requires requires(T& t, FieldFiller& f) { t.visit(f); }
  void operator()(const char*, T& v) {
    v.visit(*this);
  }
  template <class T, std::size_t N>
  void operator()(const char* key, T (&a)[N]) {
    for (T& e : a) (*this)(key, e);
  }
  template <class F>
  void object(const char*, F&& f) { f(); }
  template <class F>
  void object(const char*, bool& gate, F&& f) {
    gate = true;
    f();
  }
  void computed(const char*, double) {}
  void transport(const char* key, std::string& v) { (*this)(key, v); }
};

/// Whether `json` holds the dotted `path` as nested keys: each named
/// component is found as a key after its parent's (array indices skipped).
bool json_has_path(const std::string& json, const std::string& path) {
  std::size_t at = 0;
  std::istringstream parts(path);
  for (std::string part; std::getline(parts, part, '.');) {
    if (std::all_of(part.begin(), part.end(), ::isdigit)) continue;
    at = json.find("\"" + part + "\":", at);
    if (at == std::string::npos) return false;
  }
  return true;
}

TEST(WireFormat, EveryResultFieldReachesJsonAndWire) {
  CellResult r;
  FieldFiller fill;
  r.visit(fill);
  FieldRecorder fields;
  r.visit(fields);

  // Every NocStats and CacheStats field is on the list, per-vnet latency
  // and histograms included.
  for (const char* path :
       {"noc.buffer_writes", "noc.crossbar_traversals", "noc.crc_checks",
        "noc.synth_completions", "noc.packet_latency.2.sum",
        "noc.queueing_cycles.buckets.23", "noc.queueing_cycles.summary.max",
        "cache.l1_array_reads", "cache.nuca_latency_hist.buckets.0",
        "cache.stored_line_bytes.count", "fault.engine_faults",
        "hard_fault.applied"}) {
    EXPECT_TRUE(std::any_of(fields.fields.begin(), fields.fields.end(),
                            [&](const auto& f) { return f.first == path; }))
        << path << " is not on the field list";
  }

  std::ostringstream json;
  write_json(json, r);
  for (const auto& [key, value] : fields.fields) {
    if (key == "trace_text") continue;  // wire-only by design
    EXPECT_TRUE(json_has_path(json.str(), key))
        << key << " never reaches the JSON";
  }

  CellResult d = wire::decode_result(wire::parse_object(wire::encode_result(r)));
  FieldRecorder decoded;
  d.visit(decoded);
  EXPECT_EQ(decoded.fields, fields.fields);
}

TEST(WireFormat, RunCellCarriesEveryNocAndCacheCounter) {
  SystemConfig cfg;
  cfg.scheme = Scheme::DISCO;
  const auto& profile = workload::profile_by_name("canneal");
  const RunOptions opt = tiny_run();
  CellResult r = run_cell(cfg, profile, opt);

  // The same phases, driven directly.
  cmp::CmpSystem sys(cfg, profile);
  sys.functional_warmup(opt.warmup_ops_per_core);
  sys.run(opt.warmup_cycles);
  sys.reset_stats();
  sys.run(opt.measure_cycles);
  noc::NocStats ns = sys.noc_stats();
  cache::CacheStats cs = sys.cache_stats();
  FieldRecorder want;
  want("noc", ns);
  want("cache", cs);

  FieldRecorder all;
  r.visit(all);
  std::vector<std::pair<std::string, std::string>> got;
  for (const auto& f : all.fields)
    if (f.first.starts_with("noc") || f.first.starts_with("cache"))
      got.push_back(f);
  EXPECT_EQ(got, want.fields);
  EXPECT_GT(r.link_flits, 0u);
  EXPECT_GT(r.nuca_latency.count(), 0u);
  EXPECT_GT(r.inflight_compressions + r.inflight_decompressions, 0u);
}

TEST(WireFormat, TopologyViolationsReachTheJson) {
  CellResult r;
  r.invariants.enabled = true;
  r.invariants.topology_violations = 3;
  std::ostringstream json;
  write_json(json, r);
  EXPECT_NE(json.str().find("\"topology_violations\":3"), std::string::npos)
      << json.str();
}

TEST(WireFormat, RejectsTruncatedAndMalformedPayloads) {
  const std::string good = wire::encode_result(CellResult{});
  EXPECT_THROW(wire::parse_object(good.substr(0, good.size() / 2)),
               std::runtime_error);
  EXPECT_THROW(wire::parse_object(""), std::runtime_error);
  EXPECT_THROW(wire::parse_object("{\"a\":}"), std::runtime_error);
  EXPECT_THROW(wire::parse_object(good + "x"), std::runtime_error);
  EXPECT_THROW(wire::decode_result(wire::parse_object("{\"workload\":\"w\"}")),
               std::runtime_error)
      << "missing fields must be an error, not silently defaulted";
}

TEST(WireFormat, RunCellResultRoundTripsBitExact) {
  const auto& profile = workload::profile_by_name("canneal");
  SystemConfig plain;
  plain.scheme = Scheme::DISCO;
  // Every gate on: soft and hard faults, and the invariant checker.
  SystemConfig gated = plain;
  gated.fault.enabled = true;
  gated.fault.link_bit_flip_rate = 1e-3;
  gated.fault.hard_faults = fault::parse_hard_fault_spec("engine@3000:5");
  gated.trace.enabled = true;
  gated.trace.check_invariants = true;
  for (const bool gates : {false, true}) {
    const CellResult r = run_cell(gates ? gated : plain, profile, tiny_run());
    EXPECT_EQ(r.fault.enabled && r.fault.hard_enabled && r.invariants.enabled,
              gates);
    const std::string encoded = wire::encode_result(r);
    const CellResult d = wire::decode_result(wire::parse_object(encoded));
    EXPECT_EQ(testutil::field_image(d), testutil::field_image(r));
    EXPECT_EQ(wire::encode_result(d), encoded);
  }
}

TEST(WireFormat, NumbersMustParseWholeIntoTheirFieldType) {
  const std::string good = wire::encode_result(CellResult{});
  auto with = [&](const std::string& from, const std::string& to) {
    std::string s = good;
    const auto at = s.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return s.replace(at, from.size(), to);
  };
  const std::string cycles = "\"measured_cycles\":0,";
  const std::string latency = "\"avg_nuca_latency\":0,";
  EXPECT_NO_THROW(wire::decode_result(wire::parse_object(
      with(latency, "\"avg_nuca_latency\":-1.5e-3,"))));
  for (const std::string& bad :
       {with(cycles, "\"measured_cycles\":1.5,"),
        with(cycles, "\"measured_cycles\":-1,"),
        with(cycles, "\"measured_cycles\":1e3,"),
        with(cycles, "\"measured_cycles\":18446744073709551616,"),
        with(latency, "\"avg_nuca_latency\":1e999,"),
        with(latency, "\"avg_nuca_latency\":\"1\","),
        with("\"scheme\":\"Baseline\"", "\"scheme\":0")})
    EXPECT_THROW(wire::decode_result(wire::parse_object(bad)),
                 std::runtime_error) << bad;
  for (const char* bad : {"01", "1.", ".5", "+1", "-", "1e", "nan"})
    EXPECT_THROW(wire::parse_object(with(cycles, "\"measured_cycles\":" +
                                                    std::string(bad) + ",")),
                 std::runtime_error) << bad;
}

// ---------------------------------------------------------------------------
// Sweep flags
// ---------------------------------------------------------------------------

SweepOptions parse_flags(std::vector<std::string> args) {
  args.insert(args.begin(), "sweep");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  std::vector<std::string> positional;
  return parse_sweep_flags(static_cast<int>(argv.size()), argv.data(),
                           positional);
}

TEST(SweepFlags, SupervisorFlagsParse) {
  const SweepOptions opt =
      parse_flags({"--checkpoint-dir", "ckpt", "--timeout-ms", "500",
                   "--hang-grace-ms", "40", "--max-rss-mb", "64"});
  EXPECT_EQ(opt.supervisor.checkpoint_dir, "ckpt");
  EXPECT_EQ(opt.supervisor.cell_timeout_ms, 500u);
  EXPECT_EQ(opt.supervisor.hang_grace_ms, 40u);
  EXPECT_EQ(opt.supervisor.max_rss_mb, 64u);
  EXPECT_TRUE(opt.supervisor.active());
  EXPECT_TRUE(parse_flags({"--timeout-ms", "500"}).supervisor.active())
      << "a timeout needs a child to kill";
  EXPECT_FALSE(parse_flags({"--threads", "2"}).supervisor.active());
}

TEST(SweepFlags, NumbersAndRatesParse) {
  const SweepOptions opt =
      parse_flags({"--seed", "12", "--threads", "3", "--debug-hang-cell", "-1",
                   "--fault-rate", "1e-3", "--hard-fault-rate", "0",
                   "--shard", "1/2"});
  EXPECT_EQ(opt.base_seed, 12u);
  EXPECT_EQ(opt.threads, 3u);
  EXPECT_EQ(opt.supervisor.debug_hang_cell, -1);
  EXPECT_EQ(opt.fault.link_bit_flip_rate, 1e-3);
  EXPECT_EQ(opt.shard_index, 1u);
  EXPECT_EQ(opt.shard_count, 2u);
}

TEST(SweepFlagsDeathTest, MalformedNumbersExitWithUsage) {
  // Every case exits inside parse_sweep_flags, before any sweep starts.
  const std::vector<std::vector<std::string>> cases = {
      {"--debug-hang-cell", "foo"}, {"--seed", "12abc"},
      {"--threads", "x"},           {"--threads", "-1"},
      {"--timeout-ms", ""},         {"--fault-retries", "99999999999"},
      {"--fault-rate", "nan"},      {"--fault-drop-rate", "-1e-3"},
      {"--hard-fault-rate", "inf"}, {"--fault-link-rate", "1e-3x"},
      {"--shard", "1/2x"},          {"--shard", "a/2"}};
  for (const auto& args : cases)
    EXPECT_EXIT((void)parse_flags(args), ::testing::ExitedWithCode(2), "usage:")
        << args[0] << " " << args[1];
}

// ---------------------------------------------------------------------------
// Process isolation
// ---------------------------------------------------------------------------

TEST(Supervisor, IsolatedSweepIsByteIdenticalToInProcess) {
  const auto cells = small_grid();
  const SweepResult inproc = run_sweep(cells, quiet(2));
  SweepOptions iso = quiet(2);
  iso.supervisor.isolate = true;
  const SweepResult isolated = run_sweep(cells, iso);
  ASSERT_EQ(inproc.completed, cells.size());
  ASSERT_EQ(isolated.completed, cells.size());
  EXPECT_EQ(as_json(isolated), as_json(inproc))
      << "forked children must reproduce in-process metrics bit-for-bit";
}

TEST(Supervisor, ChildCrashIsRecordedOnceAndSiblingsFinish) {
  ScratchDir dir("crash");
  auto cells = small_grid();
  SweepOptions opt = quiet(2);
  opt.supervisor.isolate = true;
  opt.supervisor.checkpoint_dir = dir.str();
  opt.supervisor.debug_crash_cell = 1;
  const SweepResult r = run_sweep(cells, opt);
  EXPECT_FALSE(r.all_ok());
  EXPECT_EQ(r.completed, cells.size() - 1) << "other cells must still finish";
  EXPECT_EQ(r.cells[1].status, CellStatus::Crashed);
  for (const auto& c : r.cells) {
    EXPECT_EQ(c.attempts, 1u)
        << "cell " << c.index << ": a deterministic cell runs once";
    if (c.index != 1) {
      EXPECT_TRUE(c.ok()) << "cell " << c.index << ": " << c.error;
    }
  }
  EXPECT_TRUE(dir.has("postmortem-cell1-attempt1.txt"))
      << "the crashing cell must leave a black box";
}

TEST(Supervisor, CrashIsJournaledOnceAsTerminalOutcome) {
  ScratchDir dir("crash-journal");
  auto cells = small_grid();
  SweepOptions opt = quiet(2);
  opt.supervisor.isolate = true;
  opt.supervisor.checkpoint_dir = dir.str();
  opt.supervisor.debug_crash_cell = 2;
  const SweepResult r = run_sweep(cells, opt);
  EXPECT_EQ(r.failed, 1u);
  EXPECT_EQ(r.crashed, 1u);
  EXPECT_EQ(r.cells[2].status, CellStatus::Crashed);
  EXPECT_EQ(r.cells[2].attempts, 1u);
  EXPECT_NE(r.cells[2].error.find("SIGSEGV"), std::string::npos)
      << r.cells[2].error;

  // The journal holds the crash once, as the cell's terminal outcome.
  const Manifest m = load_manifest(dir.manifest());
  ASSERT_EQ(m.entries.size(), cells.size());
  std::size_t crashed = 0;
  for (const auto& e : m.entries) {
    EXPECT_EQ(e.attempts, 1u) << "cell " << e.cell;
    if (e.status == CellStatus::Crashed) {
      ++crashed;
      EXPECT_EQ(e.cell, 2u);
    }
  }
  EXPECT_EQ(crashed, 1u);
}

TEST(Supervisor, HungChildIsKilledAndRecordedTimedOut) {
  ScratchDir dir("hang");
  auto cells = small_grid();
  cells.resize(2);
  // The hung cell times out at any budget, but the healthy sibling runs
  // under the same one: size it from a measured healthy run of these cells
  // at the same concurrency, so a slow or single-CPU machine cannot kill it.
  const SweepResult healthy = run_sweep(cells, quiet(2));
  ASSERT_TRUE(healthy.all_ok());
  double slowest_ms = 0;
  for (const auto& c : healthy.cells) slowest_ms = std::max(slowest_ms, c.wall_ms);
  SweepOptions opt = quiet(2);
  opt.supervisor.cell_timeout_ms =
      250 + static_cast<std::uint64_t>(4 * slowest_ms);
  opt.supervisor.isolate = true;
  opt.supervisor.checkpoint_dir = dir.str();
  opt.supervisor.hang_grace_ms = 500;
  opt.supervisor.debug_hang_cell = 0;
  const SweepResult r = run_sweep(cells, opt);
  EXPECT_EQ(r.cells[0].status, CellStatus::TimedOut)
      << "a hung child must be killed, not hang the sweep";
  EXPECT_EQ(r.cells[0].attempts, 1u);
  EXPECT_TRUE(r.cells[1].ok()) << r.cells[1].error;
  EXPECT_EQ(r.failed, 1u);
  EXPECT_TRUE(dir.has("postmortem-cell0-attempt1.txt"))
      << "the SIGTERMed child must leave a black box";
}

TEST(Supervisor, NonStdExceptionBecomesStructuredError) {
  auto cells = small_grid();
  SweepOptions opt = quiet(2);
  opt.supervisor.debug_throw_cell = 1;  // the child throws the int 42
  const SweepResult r = run_sweep(cells, opt);
  EXPECT_EQ(r.cells[1].status, CellStatus::Failed);
  EXPECT_EQ(r.cells[1].error, "int exception: 42")
      << "a non-std::exception throw must not std::terminate the sweep";
  EXPECT_EQ(r.completed, cells.size() - 1);
}

TEST(Supervisor, ThrowingCellIsFinalNotRetried) {
  auto cells = small_grid();
  cells[1].cfg.algorithm = "no-such-algorithm";  // make_algorithm throws
  SweepOptions opt = quiet(2);
  opt.supervisor.isolate = true;
  const SweepResult r = run_sweep(cells, opt);
  EXPECT_EQ(r.cells[1].status, CellStatus::Failed);
  EXPECT_EQ(r.cells[1].attempts, 1u)
      << "a retry would replay the same seed into the same throw";
  EXPECT_NE(r.cells[1].error.find("no-such-algorithm"), std::string::npos)
      << r.cells[1].error;
  EXPECT_EQ(r.completed, cells.size() - 1);
}

// ---------------------------------------------------------------------------
// Checkpoint / resume
// ---------------------------------------------------------------------------

TEST(Supervisor, ResumeSkipsDoneCellsAndReproducesByteIdenticalOutput) {
  ScratchDir dir("resume");
  const auto cells = small_grid();
  const std::string reference = as_json(run_sweep(cells, quiet(2)));

  // First run: cell 2 crashes out permanently; the rest are journaled Ok.
  SweepOptions first = quiet(2);
  first.supervisor.isolate = true;
  first.supervisor.checkpoint_dir = dir.str();
  first.supervisor.debug_crash_cell = 2;
  const SweepResult r1 = run_sweep(cells, first);
  EXPECT_EQ(r1.completed, cells.size() - 1);
  EXPECT_EQ(r1.crashed, 1u);

  const Manifest m = load_manifest(dir.manifest());
  EXPECT_EQ(m.cells, cells.size());
  EXPECT_EQ(m.entries.size(), cells.size());

  // Resume: only the crashed cell reruns. Proof of skipping: cell 0 is now
  // booby-trapped — if the resume reran it, it would crash.
  SweepOptions second = quiet(2);
  second.supervisor.isolate = true;
  second.supervisor.resume_manifest = dir.manifest();
  second.supervisor.debug_crash_cell = 0;
  const SweepResult r2 = run_sweep(cells, second);
  EXPECT_TRUE(r2.all_ok());
  EXPECT_EQ(r2.completed, cells.size());
  EXPECT_EQ(as_json(r2), reference)
      << "a resumed sweep must emit byte-identical aggregate output";
}

TEST(Supervisor, ResumeManifestMismatchThrows) {
  ScratchDir dir("mismatch");
  const auto cells = small_grid();
  SweepOptions first = quiet(1);
  first.supervisor.checkpoint_dir = dir.str();
  (void)run_sweep(cells, first);

  SweepOptions wrong_seed = quiet(1);
  wrong_seed.base_seed = 999;
  wrong_seed.supervisor.resume_manifest = dir.manifest();
  EXPECT_THROW(run_sweep(cells, wrong_seed), std::runtime_error);

  auto fewer = cells;
  fewer.resize(2);
  SweepOptions wrong_shape = quiet(1);
  wrong_shape.supervisor.resume_manifest = dir.manifest();
  EXPECT_THROW(run_sweep(fewer, wrong_shape), std::runtime_error);

  SweepOptions missing = quiet(1);
  missing.supervisor.resume_manifest = dir.str() + "/no-such-manifest.jsonl";
  EXPECT_THROW(run_sweep(cells, missing), std::runtime_error);
}

TEST(Supervisor, InterruptFlushesManifestAndResumeFinishesTheSweep) {
  InterruptFlagGuard guard;
  ScratchDir dir("interrupt");
  const auto cells = small_grid();
  const std::string reference = as_json(run_sweep(cells, quiet(2)));

  // Interrupt already pending when the sweep starts: no cell runs, but the
  // manifest is still written so the work is resumable.
  interrupt_flag().store(true);
  SweepOptions opt = quiet(2);
  opt.supervisor.checkpoint_dir = dir.str();
  const SweepResult r = run_sweep(cells, opt);
  EXPECT_TRUE(r.interrupted);
  EXPECT_FALSE(r.all_ok());
  EXPECT_EQ(r.completed, 0u);
  for (const auto& c : r.cells)
    EXPECT_EQ(c.status, CellStatus::Interrupted) << "cell " << c.index;

  interrupt_flag().store(false);
  const Manifest m = load_manifest(dir.manifest());
  EXPECT_EQ(m.cells, cells.size());
  for (const auto& e : m.entries) EXPECT_EQ(e.status, CellStatus::Interrupted);

  SweepOptions resume = quiet(2);
  resume.supervisor.resume_manifest = dir.manifest();
  const SweepResult done = run_sweep(cells, resume);
  EXPECT_TRUE(done.all_ok());
  EXPECT_EQ(as_json(done), reference);
}

// ---------------------------------------------------------------------------
// In-sim no-progress watchdog
// ---------------------------------------------------------------------------

/// Zero-credit NoC: NIs can never inject, so the watchdog must classify the
/// stall as starvation (empty network, starved sources).
SweepCell starved_cell() {
  SystemConfig cfg;
  cfg.scheme = Scheme::Baseline;
  cfg.noc.vc_depth_flits = 0;
  SweepCell c{cfg, workload::profile_by_name("canneal"), tiny_run()};
  return c;
}

TEST(Watchdog, TripsOnZeroCreditStarvationWithClassifiedError) {
  SweepOptions opt = quiet(1);
  opt.progress_watchdog_cycles = 2000;
  const SweepResult r = run_sweep({starved_cell()}, opt);
  ASSERT_EQ(r.cells[0].status, CellStatus::Failed);
  EXPECT_NE(r.cells[0].error.find("watchdog"), std::string::npos)
      << r.cells[0].error;
  EXPECT_NE(r.cells[0].error.find("starvation"), std::string::npos)
      << r.cells[0].error;
}

TEST(Watchdog, HealthyCellNeverTrips) {
  auto cells = small_grid();
  cells.resize(1);
  SweepOptions opt = quiet(1);
  opt.progress_watchdog_cycles = 2000;  // far below the cell's cycle count
  const SweepResult r = run_sweep(cells, opt);
  EXPECT_TRUE(r.all_ok()) << r.cells[0].error;
}

TEST(Watchdog, IsolatedTripWritesPostmortemBlackBox) {
  ScratchDir dir("watchdog-postmortem");
  SweepOptions opt = quiet(1);
  opt.progress_watchdog_cycles = 2000;
  opt.supervisor.isolate = true;
  opt.supervisor.checkpoint_dir = dir.str();
  const SweepResult r = run_sweep({starved_cell()}, opt);
  ASSERT_EQ(r.cells[0].status, CellStatus::Failed);
  EXPECT_NE(r.cells[0].error.find("starvation"), std::string::npos);
  ASSERT_TRUE(dir.has("postmortem-cell0-attempt1.txt"));
  std::ifstream f(dir.str() + "/postmortem-cell0-attempt1.txt");
  std::stringstream body;
  body << f.rdbuf();
  EXPECT_NE(body.str().find("postmortem black box"), std::string::npos);
  EXPECT_NE(body.str().find("stall_census"), std::string::npos);
  EXPECT_NE(body.str().find("last_progress_cycle"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The acceptance drill: one crash + one hang in one isolated sweep
// ---------------------------------------------------------------------------

TEST(Supervisor, CrashAndHangInOneSweepRecoverEndToEnd) {
  InterruptFlagGuard guard;
  ScratchDir dir("acceptance");
  const auto cells = small_grid();
  const SweepResult healthy = run_sweep(cells, quiet(2));
  ASSERT_TRUE(healthy.all_ok());
  const std::string reference = as_json(healthy);

  // Each cell runs once, so a healthy cell that outlives the budget is lost:
  // size the budget from the measured healthy run at the same concurrency,
  // as in HungChildIsKilledAndRecordedTimedOut.
  double slowest_ms = 0;
  for (const auto& c : healthy.cells) slowest_ms = std::max(slowest_ms, c.wall_ms);
  SweepOptions opt = quiet(2);
  opt.supervisor.cell_timeout_ms =
      250 + static_cast<std::uint64_t>(4 * slowest_ms);
  opt.supervisor.isolate = true;
  opt.supervisor.checkpoint_dir = dir.str();
  opt.supervisor.hang_grace_ms = 500;
  opt.supervisor.debug_crash_cell = 1;
  opt.supervisor.debug_hang_cell = 3;
  const SweepResult r = run_sweep(cells, opt);
  EXPECT_EQ(r.completed, cells.size() - 2)
      << "healthy cells must complete around the crash and the hang";
  for (const std::size_t i : {0UL, 2UL})
    EXPECT_TRUE(r.cells[i].ok()) << "cell " << i << ": " << r.cells[i].error;
  EXPECT_EQ(r.cells[1].status, CellStatus::Crashed);
  EXPECT_EQ(r.cells[1].attempts, 1u);
  EXPECT_EQ(r.cells[3].status, CellStatus::TimedOut);
  EXPECT_EQ(r.cells[3].attempts, 1u);
  EXPECT_TRUE(dir.has("postmortem-cell1-attempt1.txt"));
  EXPECT_TRUE(dir.has("postmortem-cell3-attempt1.txt"));

  // Resume with the faults gone: only cells 1 and 3 rerun, and the
  // aggregate output is byte-identical to the uninterrupted reference.
  SweepOptions resume = quiet(2);
  resume.supervisor.isolate = true;
  resume.supervisor.resume_manifest = dir.manifest();
  resume.supervisor.checkpoint_dir = dir.str();
  const SweepResult done = run_sweep(cells, resume);
  EXPECT_TRUE(done.all_ok());
  EXPECT_EQ(as_json(done), reference);

  // Resuming the completed manifest is a no-op that still reproduces it.
  SweepOptions again = quiet(2);
  again.supervisor.resume_manifest = dir.manifest();
  again.supervisor.debug_crash_cell = 0;  // would crash if anything reran
  const SweepResult noop = run_sweep(cells, again);
  EXPECT_TRUE(noop.all_ok());
  EXPECT_EQ(as_json(noop), reference);
}

// ---------------------------------------------------------------------------
// RSS watchdog: memory exhaustion is a distinct outcome
// ---------------------------------------------------------------------------

TEST(RssWatchdog, OverLimitWorkerIsKilledAndJournaledDistinctly) {
  auto cells = small_grid();
  cells.resize(1);
  cells[0].opt.measure_cycles = 50'000'000;  // long enough to get sampled
  ScratchDir dir("rss");
  SweepOptions opt = quiet(1);
  opt.supervisor.isolate = true;
  opt.supervisor.checkpoint_dir = dir.str();
  opt.supervisor.max_rss_mb = 1;  // any real worker exceeds 1 MiB instantly
  const SweepResult r = run_sweep(cells, opt);
  EXPECT_EQ(r.cells[0].status, CellStatus::ResourceExhausted)
      << r.cells[0].error;
  EXPECT_EQ(r.cells[0].attempts, 1u);
  EXPECT_NE(r.cells[0].error.find("max-rss-mb"), std::string::npos);
  EXPECT_EQ(r.failed, 1u);

  // The distinct outcome survives the journal roundtrip.
  const Manifest m = load_manifest(dir.manifest());
  ASSERT_EQ(m.entries.size(), 1u);
  EXPECT_EQ(m.entries[0].status, CellStatus::ResourceExhausted);
  std::ifstream f(dir.manifest());
  std::stringstream body;
  body << f.rdbuf();
  EXPECT_NE(body.str().find("resource_exhausted"), std::string::npos);
}

TEST(RssWatchdog, CapAloneForksTheWorker) {
  // --max-rss-mb is enforced by the parent on its children, so setting it
  // without --isolate must still fork the cell rather than be ignored.
  auto cells = small_grid();
  cells.resize(1);
  cells[0].opt.measure_cycles = 50'000'000;
  SweepOptions opt = quiet(1);
  opt.supervisor.max_rss_mb = 1;
  const SweepResult r = run_sweep(cells, opt);
  EXPECT_EQ(r.cells[0].status, CellStatus::ResourceExhausted)
      << r.cells[0].error;
  EXPECT_EQ(r.cells[0].attempts, 1u);
}

// ---------------------------------------------------------------------------
// Manifest corruption containment (per-entry, not whole-file)
// ---------------------------------------------------------------------------

TEST(ManifestHardening, CorruptedEntryIsDroppedNotFatal) {
  auto cells = small_grid();
  cells.resize(2);
  ScratchDir dir("mancorrupt");
  SweepOptions opt = quiet(1);
  opt.supervisor.isolate = true;
  opt.supervisor.checkpoint_dir = dir.str();
  const SweepResult r = run_sweep(cells, opt);
  ASSERT_TRUE(r.all_ok());

  // Corrupt cell 0's journal entry: unknown status name (a parseable line
  // whose content is bad — the torn-line path is covered elsewhere).
  std::stringstream body;
  {
    std::ifstream f(dir.manifest());
    body << f.rdbuf();
  }
  std::string text = body.str();
  const auto pos = text.find("\"ok\"");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 4, "\"ok!\"");
  {
    std::ofstream f(dir.manifest(), std::ios::trunc);
    f << text;
  }

  const Manifest m = load_manifest(dir.manifest());
  EXPECT_EQ(m.entries.size(), 1u)
      << "the corrupted entry is dropped; the healthy one survives";

  // Resume reruns only the dropped cell and reproduces the full sweep.
  const std::string reference = as_json(run_sweep(cells, quiet(1)));
  SweepOptions resume = quiet(1);
  resume.supervisor.isolate = true;
  resume.supervisor.resume_manifest = dir.manifest();
  resume.supervisor.checkpoint_dir = dir.str();
  const SweepResult done = run_sweep(cells, resume);
  EXPECT_TRUE(done.all_ok());
  EXPECT_EQ(as_json(done), reference);
}

/// A manifest value back as JSON text (wire::Value has no writer).
std::string to_json(const wire::Value& v) {
  std::string out;
  switch (v.kind) {
    case wire::Value::Kind::Num: return v.str;
    case wire::Value::Kind::Str: wire::append_json_string(out, v.str); return out;
    case wire::Value::Kind::Arr:
      out = "[";
      for (const wire::Value& e : v.arr)
        out += (out.size() > 1 ? "," : "") + to_json(e);
      return out + "]";
    case wire::Value::Kind::Obj: break;
  }
  out = "{";
  for (const auto& [key, member] : v.obj) {
    if (out.size() > 1) out += ",";
    wire::append_json_string(out, key);
    out += ":" + to_json(member);
  }
  return out + "}";
}

/// Rewrite a journaled result in the layout of builds that copied counters
/// into CellResult by name: 17 NoC/cache counters at the top level, 24 NoC
/// counters in the "fault" and "hard_fault" objects, the rest absent.
wire::Value flat_layout(const wire::Value& result) {
  static const std::set<std::string> top = {
      "l1_misses", "link_flits", "inflight_compressions",
      "inflight_decompressions", "source_compressions", "compression_aborts",
      "decompression_aborts", "hidden_decomp_ops", "exposed_decomp_cycles",
      "exposed_comp_cycles", "ni_compressions", "ni_decompressions",
      "engine_starts", "sa_idle_losses", "l2_hits", "l2_misses", "l2_fills"};
  static const std::set<std::string> fault = {
      "crc_checks", "corruptions_detected", "silent_corruptions",
      "flit_loss_timeouts", "nacks_sent", "retransmissions",
      "retransmit_deliveries", "backoff_cycles", "duplicate_flits_dropped",
      "duplicate_retransmissions", "unrecovered_deliveries",
      "engine_decode_errors", "engines_quarantined"};
  static const std::set<std::string> hard = {
      "links_killed", "routers_killed", "engines_hard_failed", "banks_killed",
      "unreachable_drops", "dead_component_drops", "flits_destroyed",
      "severed_packets", "reroutes", "bypass_retransmits", "synth_completions"};
  wire::Value out, fault_obj, hard_obj;
  out.kind = fault_obj.kind = hard_obj.kind = wire::Value::Kind::Obj;
  for (const auto& [key, v] : result.obj) {
    if (key != "noc" && key != "cache") {
      out.obj.emplace_back(key, v);
      continue;
    }
    for (const auto& [name, member] : v.obj) {
      if (top.count(name)) out.obj.emplace_back(name, member);
      else if (fault.count(name)) fault_obj.obj.emplace_back(name, member);
      else if (hard.count(name)) hard_obj.obj.emplace_back(name, member);
    }
  }
  out.obj.emplace_back("fault", std::move(fault_obj));
  out.obj.emplace_back("hard_fault", std::move(hard_obj));
  return out;
}

/// Journals the first two cells of small_grid(), replaces cell 0's entry
/// line with `rewrite(line)`, and checks that the resume drops that entry,
/// reruns cell 0 alone and reproduces the uninterrupted sweep.
void expect_entry_rerun(
    const std::string& tag,
    const std::function<std::string(const std::string&)>& rewrite) {
  auto cells = small_grid();
  cells.resize(2);
  ScratchDir dir(tag);
  SweepOptions opt = quiet(1);
  opt.supervisor.isolate = true;
  opt.supervisor.checkpoint_dir = dir.str();
  ASSERT_TRUE(run_sweep(cells, opt).all_ok());

  std::vector<std::string> lines;
  {
    std::ifstream f(dir.manifest());
    for (std::string line; std::getline(f, line);) lines.push_back(line);
  }
  bool rewrote = false;
  for (std::string& line : lines) {
    const wire::Value v = wire::parse_object(line);
    if (v.find("result") == nullptr || v.num_or("cell", 99) != 0) continue;
    line = rewrite(line);
    rewrote = true;
  }
  ASSERT_TRUE(rewrote);
  {
    std::ofstream f(dir.manifest(), std::ios::trunc);
    for (const std::string& line : lines) f << line << '\n';
  }

  const Manifest m = load_manifest(dir.manifest());
  ASSERT_EQ(m.entries.size(), 1u)
      << "the older entry is dropped; the current one survives";
  EXPECT_EQ(m.entries[0].cell, 1u);

  const std::string reference = as_json(run_sweep(cells, quiet(1)));
  SweepOptions resume = quiet(1);
  resume.supervisor.isolate = true;
  resume.supervisor.resume_manifest = dir.manifest();
  resume.supervisor.checkpoint_dir = dir.str();
  const SweepResult done = run_sweep(cells, resume);
  EXPECT_TRUE(done.all_ok());
  EXPECT_EQ(as_json(done), reference);
  EXPECT_EQ(load_manifest(dir.manifest()).entries.size(), 2u)
      << "the rerun journals cell 0 again in the current layout";
}

TEST(ManifestHardening, FlatLayoutEntryFromOlderBuildIsRerun) {
  expect_entry_rerun("manflat", [](const std::string& line) {
    wire::Value v = wire::parse_object(line);
    for (auto& [key, member] : v.obj)
      if (key == "result") member = flat_layout(member);
    return to_json(v);
  });
}

TEST(ManifestHardening, BitPatternEntryFromOlderBuildIsRerun) {
  // Cell 0 of this grid as journaled by builds whose wire format wrote
  // flat dotted keys and doubles as IEEE-754 bit patterns.
  std::ifstream f(std::string(DISCO_TEST_DATA_DIR) +
                  "/golden/manifest_entry_bit_patterns.jsonl");
  std::string legacy;
  ASSERT_TRUE(std::getline(f, legacy));
  ASSERT_NE(legacy.find("\"noc.buffer_writes\":"), std::string::npos);
  expect_entry_rerun("manbits", [&](const std::string&) { return legacy; });
}

}  // namespace
}  // namespace disco::sim
