// Crash-resilient sweep supervisor: process isolation survives SIGSEGV,
// hang watchdog + SIGTERM/SIGKILL escalation, retry with backoff,
// checkpoint/resume byte-identity, in-sim deadlock/livelock/starvation
// classification, cooperative-cancellation thread reclamation, and the
// SIGINT flush-and-resume path. The deterministic debug fault hooks
// (--debug-crash-cell & co.) stand in for real crashes and hangs.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "cmp/system.h"
#include "common/interrupt.h"
#include "sim/json_export.h"
#include "sim/supervisor.h"
#include "sim/sweep.h"
#include "sim/sweep_internal.h"
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
  r.fault.crc_checks = 42;
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
  EXPECT_EQ(d.fault.crc_checks, 42u);
  EXPECT_EQ(d.invariants.first_violation, r.invariants.first_violation);
  EXPECT_EQ(d.trace_text, r.trace_text);
  // Re-encoding the decoded result reproduces the exact bytes.
  EXPECT_EQ(wire::encode_result(d), encoded);
}

/// Walks CellResult::visit recording every key with a printable bit image
/// of its value (a gate records "on"/"off", a plain object nothing).
struct FieldRecorder {
  std::vector<std::pair<std::string, std::string>> fields;

  void operator()(const char* key, const std::string& v) {
    fields.emplace_back(key, v);
  }
  void operator()(const char* key, std::uint64_t v) {
    fields.emplace_back(key, std::to_string(v));
  }
  void operator()(const char* key, double v) {
    fields.emplace_back(key, std::to_string(std::bit_cast<std::uint64_t>(v)));
  }
  void operator()(const char* key, Scheme v) { fields.emplace_back(key, to_string(v)); }
  template <class F>
  void object(const char* key, F&& f) {
    fields.emplace_back(key, "");
    f();
  }
  template <class F>
  void object(const char* key, bool gate, F&& f) {
    fields.emplace_back(key, gate ? "on" : "off");
    f();
  }
  void computed(const char* key, double v) { (*this)(key, v); }
  void transport(const char* key, const std::string& v) { (*this)(key, v); }
};

/// Gives every field of a result a distinct non-default value and sets
/// every gate (fault, hard fault, invariants).
struct FieldFiller {
  std::uint64_t next = 1;

  void operator()(const char*, std::string& v) { v = "s" + std::to_string(next++); }
  void operator()(const char*, std::uint64_t& v) { v = next++; }
  void operator()(const char*, double& v) { v = static_cast<double>(next++) / 3.0; }
  void operator()(const char*, Scheme& v) { v = Scheme::DISCO; }
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

TEST(WireFormat, EveryResultFieldReachesJsonAndWire) {
  CellResult r;
  FieldFiller fill;
  r.visit(fill);
  FieldRecorder fields;
  r.visit(fields);

  std::ostringstream json;
  write_json(json, r);
  for (const auto& [key, value] : fields.fields) {
    if (key == "trace_text") continue;  // wire-only by design
    EXPECT_NE(json.str().find("\"" + key + "\":"), std::string::npos)
        << key << " never reaches the JSON";
  }

  CellResult d = wire::decode_result(wire::parse_object(wire::encode_result(r)));
  FieldRecorder decoded;
  d.visit(decoded);
  EXPECT_EQ(decoded.fields, fields.fields);
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

TEST(Supervisor, SurvivesChildCrashAndRetriesWithBackoff) {
  ScratchDir dir("crash-retry");
  auto cells = small_grid();
  SweepOptions opt = quiet(2);
  opt.supervisor.isolate = true;
  opt.supervisor.checkpoint_dir = dir.str();
  opt.supervisor.max_retries = 2;
  opt.supervisor.retry_backoff_ms = 50;
  opt.supervisor.debug_crash_cell = 1;
  opt.supervisor.debug_crash_attempts = 1;  // attempt 2 succeeds
  const SweepResult r = run_sweep(cells, opt);
  EXPECT_TRUE(r.all_ok()) << "a crashing cell must be retried, not fatal";
  EXPECT_EQ(r.completed, cells.size());
  EXPECT_EQ(r.cells[1].attempts, 2u);
  EXPECT_GE(r.cells[1].wall_ms, 50.0) << "retry must wait out the backoff";
  for (const std::size_t i : {0UL, 2UL, 3UL})
    EXPECT_EQ(r.cells[i].attempts, 1u) << "cell " << i;
  EXPECT_TRUE(dir.has("postmortem-cell1-attempt1.txt"))
      << "the crashing attempt must leave a black box";
}

TEST(Supervisor, CrashRecordedWhenRetriesExhausted) {
  ScratchDir dir("crash-exhaust");
  auto cells = small_grid();
  SweepOptions opt = quiet(2);
  opt.supervisor.isolate = true;
  opt.supervisor.checkpoint_dir = dir.str();
  opt.supervisor.max_retries = 1;
  opt.supervisor.retry_backoff_ms = 10;
  opt.supervisor.debug_crash_cell = 2;
  opt.supervisor.debug_crash_attempts = 99;  // never recovers
  const SweepResult r = run_sweep(cells, opt);
  EXPECT_FALSE(r.all_ok());
  EXPECT_EQ(r.failed, 1u);
  EXPECT_EQ(r.crashed, 1u);
  EXPECT_EQ(r.completed, cells.size() - 1) << "other cells must still finish";
  EXPECT_EQ(r.cells[2].status, CellStatus::Crashed);
  EXPECT_EQ(r.cells[2].attempts, 2u);
  EXPECT_NE(r.cells[2].error.find("SIGSEGV"), std::string::npos)
      << r.cells[2].error;
}

TEST(Supervisor, HungChildIsKilledAndRetried) {
  auto cells = small_grid();
  cells.resize(2);
  // The hung attempt times out at any budget, but the healthy retry and the
  // healthy sibling run under the same one: size it from a measured healthy
  // run of these cells at the same concurrency, so a slow or single-CPU
  // machine cannot kill them.
  const SweepResult healthy = run_sweep(cells, quiet(2));
  ASSERT_TRUE(healthy.all_ok());
  double slowest_ms = 0;
  for (const auto& c : healthy.cells) slowest_ms = std::max(slowest_ms, c.wall_ms);
  SweepOptions opt = quiet(2);
  opt.cell_timeout_ms = 250 + static_cast<std::uint64_t>(4 * slowest_ms);
  opt.supervisor.isolate = true;
  opt.supervisor.max_retries = 1;
  opt.supervisor.retry_backoff_ms = 10;
  opt.supervisor.hang_grace_ms = 500;
  opt.supervisor.debug_hang_cell = 0;
  opt.supervisor.debug_crash_attempts = 1;  // the retry runs clean
  const SweepResult r = run_sweep(cells, opt);
  EXPECT_TRUE(r.all_ok())
      << "a hung child must be killed and retried, not hang the sweep";
  EXPECT_EQ(r.cells[0].attempts, 2u);
  EXPECT_TRUE(r.cells[1].ok());
}

TEST(Supervisor, NonStdExceptionBecomesStructuredError) {
  auto cells = small_grid();
  SweepOptions opt = quiet(2);
  opt.supervisor.debug_throw_cell = 1;  // throws the int 42, in-process
  opt.supervisor.max_retries = 0;
  const SweepResult r = run_sweep(cells, opt);
  EXPECT_EQ(r.cells[1].status, CellStatus::Failed);
  EXPECT_EQ(r.cells[1].error, "int exception: 42")
      << "a non-std::exception throw must not std::terminate the sweep";
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
  first.supervisor.max_retries = 0;
  first.supervisor.debug_crash_cell = 2;
  first.supervisor.debug_crash_attempts = 99;
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
  second.supervisor.debug_crash_attempts = 99;
  second.supervisor.max_retries = 0;
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
  opt.supervisor.max_retries = 0;
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
// Timed-out-cell thread reclamation (the in-process pool-slot leak fix)
// ---------------------------------------------------------------------------

TEST(Cancellation, TimedOutCellReleasesItsAttemptThread) {
  auto cells = small_grid();
  cells.resize(1);
  cells[0].opt.measure_cycles = 50'000'000;  // far beyond the budget
  SweepOptions opt = quiet(1);
  opt.cell_timeout_ms = 50;
  const SweepResult r = run_sweep(cells, opt);
  EXPECT_EQ(r.cells[0].status, CellStatus::TimedOut);
  // The cancellation token is polled every 256 cycles, so the attempt thread
  // must unwind almost immediately — not run 50M cycles to completion.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (detail::live_attempt_threads() != 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(detail::live_attempt_threads(), 0u)
      << "timed-out attempt thread leaked (pool slot not reclaimed)";
}

TEST(Cancellation, SupervisedTimeoutIsRetriedAndRecovers) {
  auto cells = small_grid();
  cells.resize(1);
  SweepOptions opt = quiet(1);
  // Generous budget: attempt 1 is a *deliberate* hang so it times out at any
  // budget, while the healthy retry must never be killed by a slow machine.
  opt.cell_timeout_ms = 2000;
  opt.supervisor.debug_hang_cell = 0;  // in-process hang, attempt 1 only
  opt.supervisor.debug_crash_attempts = 1;
  opt.supervisor.max_retries = 1;
  opt.supervisor.retry_backoff_ms = 10;
  opt.supervisor.hang_grace_ms = 2000;
  const SweepResult r = run_sweep(cells, opt);
  EXPECT_TRUE(r.all_ok()) << r.cells[0].error;
  EXPECT_EQ(r.cells[0].attempts, 2u)
      << "the supervisor retries timeouts (unlike the plain sweep)";
  EXPECT_EQ(detail::live_attempt_threads(), 0u);
}

// ---------------------------------------------------------------------------
// The acceptance drill: one crash + one hang in one isolated sweep
// ---------------------------------------------------------------------------

TEST(Supervisor, CrashAndHangInOneSweepRecoverEndToEnd) {
  InterruptFlagGuard guard;
  ScratchDir dir("acceptance");
  const auto cells = small_grid();
  const std::string reference = as_json(run_sweep(cells, quiet(2)));

  SweepOptions opt = quiet(2);
  opt.cell_timeout_ms = 300;
  opt.supervisor.isolate = true;
  opt.supervisor.checkpoint_dir = dir.str();
  opt.supervisor.max_retries = 1;
  opt.supervisor.retry_backoff_ms = 10;
  opt.supervisor.hang_grace_ms = 500;
  opt.supervisor.debug_crash_cell = 1;
  opt.supervisor.debug_hang_cell = 3;
  opt.supervisor.debug_crash_attempts = 99;  // both cells exhaust retries
  const SweepResult r = run_sweep(cells, opt);
  EXPECT_EQ(r.completed, cells.size() - 2)
      << "healthy cells must complete around the crash and the hang";
  EXPECT_EQ(r.cells[1].status, CellStatus::Crashed);
  EXPECT_EQ(r.cells[1].attempts, 2u) << "crash retried up to max_retries";
  EXPECT_EQ(r.cells[3].status, CellStatus::TimedOut);
  EXPECT_EQ(r.cells[3].attempts, 2u) << "hang retried up to max_retries";
  EXPECT_TRUE(dir.has("postmortem-cell1-attempt1.txt"));
  EXPECT_TRUE(dir.has("postmortem-cell3-attempt1.txt"));

  // Resume with the faults gone (the flaky machine rebooted): byte-identical
  // aggregate output vs the uninterrupted reference.
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
  again.supervisor.debug_crash_attempts = 99;
  again.supervisor.max_retries = 0;
  const SweepResult noop = run_sweep(cells, again);
  EXPECT_TRUE(noop.all_ok());
  EXPECT_EQ(as_json(noop), reference);
}

// ---------------------------------------------------------------------------
// Mid-cell checkpointing: SIGKILL between snapshots, byte-identical resume
// ---------------------------------------------------------------------------

TEST(MidCellCheckpoint, SigkilledWorkerResumesByteIdenticallyAnyThreadCount) {
  const auto cells = small_grid();
  const std::string reference = as_json(run_sweep(cells, quiet(1)));

  for (const unsigned threads : {1u, 2u}) {
    ScratchDir dir("snapkill-t" + std::to_string(threads));
    SweepOptions opt = quiet(threads);
    opt.supervisor.isolate = true;
    opt.supervisor.checkpoint_dir = dir.str();
    opt.supervisor.snapshot_interval_cycles = 2000;
    opt.supervisor.max_retries = 1;
    opt.supervisor.retry_backoff_ms = 10;
    // Cell 0 SIGKILLs itself right after the snapshot at measured cycle
    // 4000 (of 8000) on attempt 1 only; attempt 2 must resume mid-cell.
    opt.supervisor.debug_kill_cell = 0;
    opt.supervisor.debug_kill_cycle = 4000;
    const SweepResult r = run_sweep(cells, opt);
    ASSERT_TRUE(r.all_ok()) << "threads=" << threads << ": "
                            << r.cells[0].error;
    EXPECT_EQ(r.cells[0].attempts, 2u)
        << "the SIGKILL must cost exactly one attempt";
    EXPECT_EQ(r.cells[0].snap_saved_cycles, 4000u)
        << "the retry must resume from the cycle-4000 snapshot";
    EXPECT_EQ(as_json(r), reference)
        << "threads=" << threads
        << ": resumed sweep must be byte-identical to an uninterrupted run";

    // Manifest lineage: the journal records the cycles saved by recovery.
    const Manifest m = load_manifest(dir.manifest());
    bool found = false;
    for (const auto& e : m.entries) {
      if (e.cell != 0) continue;
      found = true;
      EXPECT_EQ(e.snap_saved_cycles, 4000u);
    }
    EXPECT_TRUE(found);

    // Snapshot-dir hygiene: terminal cells leave no snapshots behind.
    for (std::size_t i = 0; i < cells.size(); ++i) {
      EXPECT_FALSE(dir.has("snap-cell" + std::to_string(i) + ".bin"))
          << "snapshot for completed cell " << i << " was not GCed";
    }
  }
}

TEST(MidCellCheckpoint, CorruptedSnapshotFallsBackToFromZeroRetry) {
  auto cells = small_grid();
  cells.resize(1);
  const std::string reference = as_json(run_sweep(cells, quiet(1)));

  ScratchDir dir("snapcorrupt");
  // A stale, corrupted snapshot is already sitting where cell 0 would
  // resume from (e.g. disk corruption after a crash).
  {
    std::ofstream f(dir.str() + "/snap-cell0.bin", std::ios::binary);
    f << "DSNPgarbage-not-a-valid-snapshot-payload";
  }
  SweepOptions opt = quiet(1);
  opt.supervisor.isolate = true;
  opt.supervisor.checkpoint_dir = dir.str();
  opt.supervisor.snapshot_interval_cycles = 2000;
  const SweepResult r = run_sweep(cells, opt);
  ASSERT_TRUE(r.all_ok()) << r.cells[0].error;
  EXPECT_EQ(r.cells[0].snap_saved_cycles, 0u)
      << "checksum rejection must fall back to a from-zero run";
  EXPECT_EQ(as_json(r), reference);
  EXPECT_FALSE(dir.has("snap-cell0.bin"));
}

TEST(MidCellCheckpoint, FreshSweepClearsStaleSnapshots) {
  auto cells = small_grid();
  cells.resize(1);
  ScratchDir dir("snapstale");
  {
    std::ofstream f(dir.str() + "/snap-cell0.bin", std::ios::binary);
    f << "stale";
    std::ofstream t(dir.str() + "/snap-cell0.bin.tmp", std::ios::binary);
    t << "torn";
  }
  SweepOptions opt = quiet(1);
  opt.supervisor.isolate = true;
  opt.supervisor.checkpoint_dir = dir.str();
  const SweepResult r = run_sweep(cells, opt);
  EXPECT_TRUE(r.all_ok());
  EXPECT_FALSE(dir.has("snap-cell0.bin"))
      << "a fresh (non-resume) sweep must invalidate leftover snapshots";
  EXPECT_FALSE(dir.has("snap-cell0.bin.tmp"));
}

// ---------------------------------------------------------------------------
// RSS watchdog: memory exhaustion is a distinct, retryable outcome
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
  opt.supervisor.max_retries = 1;
  opt.supervisor.retry_backoff_ms = 10;
  const SweepResult r = run_sweep(cells, opt);
  EXPECT_EQ(r.cells[0].status, CellStatus::ResourceExhausted)
      << r.cells[0].error;
  EXPECT_EQ(r.cells[0].attempts, 2u)
      << "resource exhaustion honors retry/backoff like other failures";
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

}  // namespace
}  // namespace disco::sim
